#include "netd/udp.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace thinair::netd {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

UdpSocket UdpSocket::bind(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  UdpSocket sock(fd);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    throw_errno("fcntl(O_NONBLOCK)");

  // Generous buffers: the daemon funnels every session through one socket.
  const int buf = 1 << 21;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));

  const sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno("bind");
  return sock;
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  return ntohs(addr.sin_port);
}

bool UdpSocket::send_to(const sockaddr_in& to,
                        std::span<const std::uint8_t> bytes) {
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  if (n >= 0) return true;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
      errno == ECONNREFUSED)
    return false;  // dropped; ARQ recovers
  throw_errno("sendto");
}

bool UdpSocket::recv_from(std::vector<std::uint8_t>& buf, sockaddr_in& from) {
  // Receive into uninitialised stack scratch and copy only the datagram:
  // sizing `buf` to the maximum first would zero-fill 16 KiB per call.
  std::array<std::uint8_t, 1 << 14> scratch;
  socklen_t len = sizeof(from);
  const ssize_t n = ::recvfrom(fd_, scratch.data(), scratch.size(), 0,
                               reinterpret_cast<sockaddr*>(&from), &len);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNREFUSED)
      return false;
    throw_errno("recvfrom");
  }
  buf.assign(scratch.data(), scratch.data() + n);
  return true;
}

bool UdpSocket::wait_readable(int timeout_ms) {
  pollfd p{fd_, POLLIN, 0};
  const int n = ::poll(&p, 1, timeout_ms);
  return n > 0 && (p.revents & POLLIN) != 0;
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1)
    throw std::invalid_argument("make_addr: unparseable IPv4 host: " + host);
  return addr;
}

}  // namespace thinair::netd
