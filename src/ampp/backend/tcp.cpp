#include "ampp/backend/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "util/assert.hpp"

namespace dpg::ampp::backend {
namespace {

// Mesh construction is deadlock-free by ordering: rank r *connects* to
// every rank below it and *accepts* from every rank above it, so each
// unordered pair {lo, hi} gets exactly one socket, initiated by hi.
// Rank r of channel c listens on base_port + c * n_ranks + r.

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Blocking exact-length read during the handshake phase only (sockets are
// still blocking there); returns false on EOF.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  while (n) {
    const ssize_t got = ::read(fd, p, n);
    if (got == 0) return false;
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  auto* p = static_cast<const std::byte*>(buf);
  while (n) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// Exchanges handshakes on a fresh connection (ours out first, then read
// theirs) and validates. `expect_src` pins the peer's rank on accepted
// connections where we already know who must be on the other end from the
// port order (invalid_rank = learn it from the handshake).
rank_t shake(int fd, const wire_handshake& ours, rank_t expect_src, rank_t n_ranks,
             std::uint32_t channel, const char* who) {
  if (!write_exact(fd, &ours, sizeof(ours)))
    throw wire_error(std::string(who) + ": handshake write failed (peer closed early?)");
  wire_handshake theirs{};
  if (!read_exact(fd, &theirs, sizeof(theirs)))
    throw wire_error(std::string(who) +
                     ": handshake read failed — peer rejected us or is not a dpg wire peer");
  validate_handshake(theirs, n_ranks, channel, who);
  if (theirs.src_rank >= n_ranks)
    throw wire_error(std::string(who) + ": peer claims out-of-range rank " +
                     std::to_string(theirs.src_rank));
  if (expect_src != invalid_rank && theirs.src_rank != expect_src)
    throw wire_error(std::string(who) + ": expected rank " + std::to_string(expect_src) +
                     " on this connection, peer claims rank " +
                     std::to_string(theirs.src_rank));
  return theirs.src_rank;
}

// Waits until the listener `lfd` holds a connection to accept; false once
// `deadline` passes first.
bool await_connection(int lfd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    ::pollfd pfd{.fd = lfd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) throw wire_error("tcp backend: poll() on the listener failed");
  }
}

}  // namespace

tcp_backend::tcp_backend(const backend_config& cfg, rank_t n_ranks, std::uint32_t channel)
    : self_(cfg.self_rank), n_ranks_(n_ranks), peers_(n_ranks), send_mu_(n_ranks) {
  DPG_ASSERT_MSG(self_ < n_ranks_, "tcp backend: self_rank out of range");
  const wire_handshake ours{.src_rank = self_, .n_ranks = n_ranks_, .channel = channel};
  const std::uint16_t my_port =
      static_cast<std::uint16_t>(cfg.base_port + channel * n_ranks_ + self_);

  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1)
    throw wire_error("tcp backend: bad host address '" + cfg.host + "'");

  // Listen first so any peer that races ahead of us finds the port open.
  int lfd = -1;
  if (self_ + 1 < n_ranks_) {  // the top rank only connects, never accepts
    lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (lfd < 0) throw wire_error("tcp backend: socket() failed");
    int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::sockaddr_in bindaddr = addr;
    bindaddr.sin_port = htons(my_port);
    if (::bind(lfd, reinterpret_cast<::sockaddr*>(&bindaddr), sizeof(bindaddr)) != 0 ||
        ::listen(lfd, static_cast<int>(n_ranks_)) != 0) {
      ::close(lfd);
      throw wire_error("tcp backend: bind/listen on port " + std::to_string(my_port) +
                       " failed (stale process holding it?)");
    }
  }

  try {
    // Connect downward: to every rank below self, with retry while the
    // peer's listener comes up.
    for (rank_t dest = 0; dest < self_; ++dest) {
      const std::uint16_t port =
          static_cast<std::uint16_t>(cfg.base_port + channel * n_ranks_ + dest);
      ::sockaddr_in peer_addr = addr;
      peer_addr.sin_port = htons(port);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(cfg.attach_timeout_ms);
      int fd = -1;
      for (;;) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throw wire_error("tcp backend: socket() failed");
        if (::connect(fd, reinterpret_cast<::sockaddr*>(&peer_addr),
                      sizeof(peer_addr)) == 0)
          break;
        ::close(fd);
        fd = -1;
        if (std::chrono::steady_clock::now() > deadline)
          throw wire_error("tcp backend: timed out connecting to rank " +
                           std::to_string(dest) + " on port " + std::to_string(port));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      set_nodelay(fd);
      try {
        shake(fd, ours, dest, n_ranks_, channel, "tcp backend (connect)");
      } catch (...) {
        ::close(fd);
        throw;
      }
      peers_[dest].fd = fd;
    }

    // Accept upward: one connection from each rank above self, in whatever
    // order they arrive; the handshake tells us which rank it is. The wait
    // obeys the connects' deadline, so a peer that dies before it connects
    // is an error naming it rather than a rank blocked forever.
    const auto accept_deadline = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(cfg.attach_timeout_ms);
    for (rank_t pending = n_ranks_ - 1 - self_; pending > 0; --pending) {
      if (!await_connection(lfd, accept_deadline)) {
        std::string missing;
        for (rank_t src = self_ + 1; src < n_ranks_; ++src)
          if (peers_[src].fd == -1) missing += (missing.empty() ? "" : ", ") + std::to_string(src);
        throw wire_error("tcp backend: timed out after " + std::to_string(cfg.attach_timeout_ms) +
                         " ms waiting for rank(s) " + missing + " to connect on port " +
                         std::to_string(my_port));
      }
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) throw wire_error("tcp backend: accept() failed");
      set_nodelay(fd);
      rank_t src;
      try {
        src = shake(fd, ours, invalid_rank, n_ranks_, channel, "tcp backend (accept)");
      } catch (...) {
        ::close(fd);
        throw;
      }
      if (src <= self_ || peers_[src].fd != -1) {
        ::close(fd);
        throw wire_error("tcp backend: duplicate or misdirected connection from rank " +
                         std::to_string(src));
      }
      peers_[src].fd = fd;
    }
  } catch (...) {
    if (lfd >= 0) ::close(lfd);
    for (peer& p : peers_)
      if (p.fd >= 0) ::close(p.fd);
    throw;
  }
  if (lfd >= 0) ::close(lfd);  // mesh complete; no more connections expected

  // Data phase is nonblocking on the receive side: poll() drains what's
  // there and returns.
  for (rank_t r = 0; r < n_ranks_; ++r) {
    if (r == self_) continue;
    const int fl = ::fcntl(peers_[r].fd, F_GETFL, 0);
    ::fcntl(peers_[r].fd, F_SETFL, fl | O_NONBLOCK);
  }
}

tcp_backend::~tcp_backend() {
  for (peer& p : peers_)
    if (p.fd >= 0) ::close(p.fd);
}

void tcp_backend::send_all(int fd, const void* buf, std::size_t n, rank_t dest) {
  auto* p = static_cast<const std::byte*>(buf);
  while (n) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The socket inherited O_NONBLOCK (one fd serves both directions);
        // a full send buffer just means the peer is busy — wait it out.
        std::this_thread::yield();
        continue;
      }
      throw wire_error("tcp backend: send to rank " + std::to_string(dest) +
                       " failed (" + std::string(std::strerror(errno)) + ")");
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
}

void tcp_backend::send(rank_t dest, const wire_header& h, const std::byte* payload) {
  DPG_ASSERT_MSG(dest < n_ranks_ && dest != self_, "tcp backend: bad destination");
  std::lock_guard lk(send_mu_[dest]);
  peer& p = peers_[dest];
  if (p.fd < 0 || p.closed)
    throw wire_error("tcp backend: send to rank " + std::to_string(dest) +
                     " after peer disconnect");
  // One frame = the 56-byte header (whose payload_bytes field is the
  // length prefix) followed by the payload. Two writes keep the envelope
  // zero-copy from the pool buffer.
  send_all(p.fd, &h, sizeof(h), dest);
  if (h.payload_bytes) send_all(p.fd, payload, h.payload_bytes, dest);
}

std::size_t tcp_backend::drain_peer(rank_t src, const frame_sink& sink) {
  peer& p = peers_[src];
  if (p.fd < 0) return 0;
  // Append whatever is readable right now.
  std::byte chunk[16384];
  for (;;) {
    const ssize_t got = ::read(p.fd, chunk, sizeof(chunk));
    if (got > 0) {
      p.rx.insert(p.rx.end(), chunk, chunk + got);
      continue;
    }
    if (got == 0) {
      p.closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    throw wire_error("tcp backend: read from rank " + std::to_string(src) +
                     " failed (" + std::string(std::strerror(errno)) + ")");
  }

  // Dispatch every complete frame; keep the partial tail for next poll.
  std::size_t delivered = 0;
  std::size_t off = 0;
  while (p.rx.size() - off >= sizeof(wire_header)) {
    wire_header h;
    std::memcpy(&h, p.rx.data() + off, sizeof(wire_header));
    check_frame(h, n_ranks_);  // before the payload is awaited
    const std::size_t frame = sizeof(wire_header) + h.payload_bytes;
    if (p.rx.size() - off < frame) break;  // partial read: wait for the rest
    sink(h, p.rx.data() + off + sizeof(wire_header));
    off += frame;
    ++delivered;
  }
  if (off) p.rx.erase(p.rx.begin(), p.rx.begin() + static_cast<std::ptrdiff_t>(off));

  if (p.closed && !p.rx.empty())
    throw wire_error("tcp backend: rank " + std::to_string(src) +
                     " disconnected mid-frame (" + std::to_string(p.rx.size()) +
                     " bytes of partial frame)");
  return delivered;
}

std::size_t tcp_backend::poll(const frame_sink& sink) {
  std::unique_lock lk(poll_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return 0;
  std::size_t delivered = 0;
  for (rank_t src = 0; src < n_ranks_; ++src) {
    if (src == self_) continue;
    delivered += drain_peer(src, sink);
  }
  return delivered;
}

}  // namespace dpg::ampp::backend
