#include "socket.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace penelope {
namespace net {

namespace {

/** Poll granularity: the longest a blocked receive goes without
 *  consulting its abort predicate. */
constexpr int kPollSliceMs = 100;

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** Milliseconds of @p deadline budget left; kPollSliceMs-capped.
 *  Returns -1 (wait one full slice) for infinite budgets. */
int
remainingSlice(std::chrono::steady_clock::time_point deadline,
               bool infinite)
{
    if (infinite)
        return kPollSliceMs;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        return 0;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now)
            .count();
    return static_cast<int>(
        std::min<long long>(left, kPollSliceMs));
}

} // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Socket::waitReadable(int timeout_ms) const
{
    if (fd_ < 0)
        return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    return ready > 0 &&
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

Socket
Socket::listenOn(std::uint16_t port, std::string *error)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) {
        if (error)
            *error = errnoMessage("socket");
        return {};
    }
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (error)
            *error = errnoMessage("bind");
        return {};
    }
    if (::listen(sock.fd(), 16) != 0) {
        if (error)
            *error = errnoMessage("listen");
        return {};
    }
    return sock;
}

std::uint16_t
Socket::boundPort() const
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (!valid() ||
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

Socket
Socket::accept(int timeout_ms, int wake_fd) const
{
    pollfd pfd[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int ready = ::poll(pfd, wake_fd >= 0 ? 2 : 1, timeout_ms);
    if (ready <= 0 || !(pfd[0].revents & POLLIN))
        return {};
    return Socket(::accept(fd_, nullptr, nullptr));
}

Socket
Socket::connectTo(const std::string &host, std::uint16_t port,
                  std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *results = nullptr;
    const std::string service = std::to_string(port);
    const int rc =
        ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                      &results);
    if (rc != 0 || !results) {
        if (error)
            *error = std::string("getaddrinfo: ") +
                ::gai_strerror(rc);
        if (results)
            ::freeaddrinfo(results);
        return {};
    }

    Socket sock;
    for (const addrinfo *ai = results; ai; ai = ai->ai_next) {
        Socket attempt(::socket(ai->ai_family, ai->ai_socktype,
                                ai->ai_protocol));
        if (!attempt.valid())
            continue;
        if (::connect(attempt.fd(), ai->ai_addr,
                      ai->ai_addrlen) == 0) {
            sock = std::move(attempt);
            break;
        }
    }
    ::freeaddrinfo(results);
    if (!sock.valid() && error)
        *error = errnoMessage("connect");
    return sock;
}

bool
Socket::sendAll(const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t sent =
            ::send(fd_, p, len, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (sent == 0)
            return false;
        p += sent;
        len -= static_cast<std::size_t>(sent);
    }
    return true;
}

bool
Socket::recvAll(void *data, std::size_t len, int timeout_ms,
                const AbortFn &abort)
{
    const bool infinite = timeout_ms < 0;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(infinite ? 0 : timeout_ms);

    char *p = static_cast<char *>(data);
    while (len > 0) {
        if (abort && abort())
            return false;
        const int wait = remainingSlice(deadline, infinite);
        if (!infinite && wait == 0)
            return false; // deadline exceeded
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (ready == 0)
            continue; // poll slice elapsed; re-check abort/deadline
        const ssize_t got = ::recv(fd_, p, len, 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false; // peer closed
        p += got;
        len -= static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace net
} // namespace penelope
