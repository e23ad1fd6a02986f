/**
 * @file
 * Minimal RAII layer over POSIX TCP sockets.
 *
 * Everything the coordinator/worker protocol needs and nothing
 * more: listen/accept/connect, exact-length blocking send/receive
 * with optional deadlines, and move-only ownership of the file
 * descriptor.  No external dependencies -- plain <sys/socket.h>.
 *
 * Blocking receives poll in short intervals and consult an
 * optional abort predicate, so a thread waiting on a slow peer can
 * be released when the run completes elsewhere (the coordinator
 * uses this to unblock handlers waiting on duplicate results).
 * SIGPIPE is never raised: sends use MSG_NOSIGNAL and report the
 * error through the return value instead.
 */

#ifndef PENELOPE_NET_SOCKET_HH
#define PENELOPE_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace penelope {
namespace net {

/** Predicate consulted while a receive waits for data; return true
 *  to give the wait up (the receive then fails). */
using AbortFn = std::function<bool()>;

/** Move-only owner of one socket file descriptor. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void close();

    /**
     * Wait until the socket is readable (data, EOF or error), at
     * most @p timeout_ms (negative = forever).  Distinguishes "no
     * data yet" (false) from "a receive would not block" (true) --
     * recvAll/recvFrame cannot, since their timeout and a closed
     * peer both surface as failure.
     */
    bool waitReadable(int timeout_ms) const;

    /**
     * Bind and listen on @p port (0 = kernel-chosen ephemeral
     * port; query it with boundPort()).  Listens on every
     * interface: workers are expected on other machines.  Returns
     * an invalid socket and fills @p error on failure.
     */
    static Socket listenOn(std::uint16_t port, std::string *error);

    /** Local port of a bound/listening socket (0 on failure). */
    std::uint16_t boundPort() const;

    /**
     * Accept one connection, waiting at most @p timeout_ms
     * (negative = forever).  Returns an invalid socket on timeout
     * or error, or as soon as @p wake_fd (when >= 0; e.g. a
     * self-pipe) turns readable.
     */
    Socket accept(int timeout_ms, int wake_fd = -1) const;

    /**
     * Connect to @p host (name or numeric address) : @p port.
     * Returns an invalid socket and fills @p error on failure.
     */
    static Socket connectTo(const std::string &host,
                            std::uint16_t port,
                            std::string *error);

    /** Send exactly @p len bytes; false on any error. */
    bool sendAll(const void *data, std::size_t len);

    /**
     * Receive exactly @p len bytes.  Waits at most @p timeout_ms
     * overall (negative = forever), polling in short intervals and
     * consulting @p abort between them.  False on EOF, error,
     * timeout or abort.
     */
    bool recvAll(void *data, std::size_t len, int timeout_ms = -1,
                 const AbortFn &abort = {});

  private:
    int fd_ = -1;
};

} // namespace net
} // namespace penelope

#endif // PENELOPE_NET_SOCKET_HH
