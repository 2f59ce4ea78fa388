#include "farm/farm_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "exec/jit_cache.hpp"
#include "farm/framing.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo::farm {

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    SLPWLO_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 std::string("farm: fcntl O_NONBLOCK failed: ") +
                     std::strerror(errno));
}

long long steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Message ok() {
    Message response;
    response.verb = "ok";
    return response;
}

Message error_message(const std::string& text) {
    Message response;
    response.verb = "error";
    // The kv line format cannot carry newlines; flatten multi-line
    // errors rather than corrupting the frame.
    std::string flat = text;
    for (char& c : flat) {
        if (c == '\n' || c == '\r') c = ' ';
    }
    response.fields["message"] = flat;
    return response;
}

}  // namespace

FarmServer::FarmServer(const ServerOptions& options)
    : options_(options), board_(options.ttl_ms), start_ns_(steady_ns()) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SLPWLO_CHECK(listen_fd_ >= 0, std::string("farm: socket failed: ") +
                                      std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr =
        htonl(options.all_interfaces ? INADDR_ANY : INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<uint16_t>(options.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
               sizeof(address)) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw Error("farm: cannot bind port " + std::to_string(options.port) +
                    ": " + reason);
    }
    SLPWLO_CHECK(::listen(listen_fd_, 64) == 0,
                 std::string("farm: listen failed: ") + std::strerror(errno));
    set_nonblocking(listen_fd_);

    sockaddr_in bound{};
    socklen_t length = sizeof(bound);
    SLPWLO_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                               &length) == 0,
                 std::string("farm: getsockname failed: ") +
                     std::strerror(errno));
    port_ = ntohs(bound.sin_port);
    // Workers on this host share the JIT directory: drop the temp files of
    // builders that were SIGKILLed mid-compile.
    exec::jit_cleanup_stale(exec::jit_cache_directory(),
                            exec::kJitStaleTempAgeMs);
}

FarmServer::~FarmServer() {
    for (Connection& connection : connections_) {
        if (connection.fd >= 0) ::close(connection.fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

long long FarmServer::now_ms() const {
    return (steady_ns() - start_ns_) / 1000000;
}

void FarmServer::flush(Connection& connection) {
    while (!connection.out.empty()) {
        const ssize_t n = ::send(connection.fd, connection.out.data(),
                                 connection.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            connection.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        // Peer gone mid-write: drop the rest, close on the next sweep.
        connection.out.clear();
        connection.close_after_flush = true;
        return;
    }
}

void FarmServer::run() {
    while (!stop_.load()) {
        std::vector<pollfd> fds;
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const Connection& connection : connections_) {
            short events = POLLIN;
            if (!connection.out.empty()) events |= POLLOUT;
            fds.push_back({connection.fd, events, 0});
        }
        const int ready = ::poll(fds.data(), fds.size(),
                                 static_cast<int>(options_.tick_ms));
        if (ready < 0 && errno != EINTR) {
            throw Error(std::string("farm: poll failed: ") +
                        std::strerror(errno));
        }
        const long long now = now_ms();
        // Every tick is an expiry sweep: stale workers lose their claims
        // whether or not any socket is active.
        board_.expire(now);

        if (fds[0].revents & POLLIN) {
            while (true) {
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0) break;  // EAGAIN: accepted everything pending
                set_nonblocking(fd);
                Connection connection;
                connection.fd = fd;
                connections_.push_back(std::move(connection));
            }
        }

        for (size_t i = 0; i < connections_.size(); ++i) {
            Connection& connection = connections_[i];
            const short revents =
                i + 1 < fds.size() ? fds[i + 1].revents : 0;
            bool dead = (revents & (POLLERR | POLLNVAL)) != 0;

            if (!dead && (revents & (POLLIN | POLLHUP))) {
                char chunk[16384];
                while (true) {
                    const ssize_t n =
                        ::recv(connection.fd, chunk, sizeof(chunk), 0);
                    if (n > 0) {
                        connection.in.append(chunk, static_cast<size_t>(n));
                        continue;
                    }
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK)) {
                        break;
                    }
                    if (n < 0 && errno == EINTR) continue;
                    // EOF or hard error. Any partial frame in the buffer
                    // is dropped unacted-on: a worker killed mid-frame
                    // delivered nothing.
                    dead = true;
                    break;
                }
            }

            if (!connection.close_after_flush) {
                try {
                    while (std::optional<Message> request =
                               take_frame(connection.in)) {
                        connection.out +=
                            encode_frame(handle(*request, now));
                    }
                } catch (const Error& e) {
                    // Framing errors (garbage header, oversized length,
                    // version mismatch) poison the stream: answer once,
                    // then close.
                    connection.out += encode_frame(error_message(e.what()));
                    connection.close_after_flush = true;
                }
            }

            if (!connection.out.empty()) flush(connection);
            if (dead ||
                (connection.close_after_flush && connection.out.empty())) {
                ::close(connection.fd);
                connection.fd = -1;
            }
        }
        connections_.erase(
            std::remove_if(connections_.begin(), connections_.end(),
                           [](const Connection& c) { return c.fd < 0; }),
            connections_.end());
    }
    // Best-effort flush of anything still queued (e.g. the `shutdown`
    // acknowledgment) before the destructor closes the sockets.
    for (Connection& connection : connections_) {
        if (connection.fd >= 0 && !connection.out.empty()) flush(connection);
    }
}

Message FarmServer::handle(const Message& request, long long now) {
    try {
        if (request.verb == "hello" || request.verb == "heartbeat") {
            board_.heartbeat(request.require_field("worker"), now);
            Message response = ok();
            if (request.verb == "hello") {
                response.fields["protocol"] = kProtocolTag;
            }
            return response;
        }
        if (request.verb == "submit") {
            dist::ChunkOptions chunking;
            if (!request.field("chunk_cost").empty()) {
                try {
                    chunking.chunk_cost = std::stod(request.field("chunk_cost"));
                } catch (const std::exception&) {
                    throw Error("farm: submit chunk_cost is not a number: '" +
                                request.field("chunk_cost") + "'");
                }
            }
            if (!request.field("chunk_slots").empty()) {
                chunking.max_chunk_slots =
                    static_cast<size_t>(request.require_ll("chunk_slots"));
            }
            std::string manifest_text = request.body;
            std::string splice_text;
            if (!request.field("splice_bytes").empty()) {
                const long long splice_bytes =
                    request.require_ll("splice_bytes");
                SLPWLO_CHECK(
                    splice_bytes >= 0 &&
                        static_cast<size_t>(splice_bytes) <=
                            manifest_text.size(),
                    "farm: splice_bytes exceeds the submit body");
                const size_t cut =
                    manifest_text.size() - static_cast<size_t>(splice_bytes);
                splice_text = manifest_text.substr(cut);
                manifest_text.erase(cut);
            }
            const size_t job =
                board_.submit(manifest_text, chunking, splice_text, now);
            Message response = ok();
            response.fields["job"] = std::to_string(job);
            response.fields["spliced"] =
                std::to_string(board_.splice_count(job));
            return response;
        }
        if (request.verb == "next_job") {
            Message response = ok();
            if (const std::optional<size_t> job = board_.next_job()) {
                response.fields["job"] = std::to_string(*job);
            } else if (board_.job_count() == 0) {
                // Nothing submitted yet: a worker that connected early
                // should poll, not exit.
                response.fields["wait"] = std::string("1");
            } else {
                response.fields["drained"] = std::string("1");
            }
            return response;
        }
        if (request.verb == "manifest") {
            Message response = ok();
            response.body = board_.manifest_text(
                static_cast<size_t>(request.require_ll("job")));
            return response;
        }
        if (request.verb == "acquire") {
            const JobBoard::Acquired acquired = board_.acquire(
                request.require_field("worker"),
                static_cast<size_t>(request.require_ll("job")), now);
            Message response = ok();
            if (acquired.slots.empty()) {
                response.fields["wait"] = acquired.wait ? "1" : "0";
            } else {
                response.fields["lease"] = std::to_string(acquired.lease);
                std::string slots;
                for (const size_t slot : acquired.slots) {
                    if (!slots.empty()) slots += ",";
                    slots += std::to_string(slot);
                }
                response.fields["slots"] = slots;
            }
            return response;
        }
        if (request.verb == "complete") {
            const bool finalized = board_.complete(
                request.require_field("worker"),
                static_cast<size_t>(request.require_ll("job")),
                static_cast<uint64_t>(request.require_ll("lease")),
                request.body, now);
            Message response = ok();
            response.fields["finalized"] = std::string(finalized ? "1" : "0");
            return response;
        }
        if (request.verb == "abandon") {
            board_.abandon(static_cast<size_t>(request.require_ll("job")),
                           static_cast<uint64_t>(request.require_ll("lease")));
            return ok();
        }
        if (request.verb == "status") {
            Message response = ok();
            response.body = board_.status_json(now);
            return response;
        }
        if (request.verb == "report") {
            Message response = ok();
            response.body =
                board_.report(static_cast<size_t>(request.require_ll("job")));
            return response;
        }
        if (request.verb == "rows") {
            Message response = ok();
            response.body = board_.rows_text(
                static_cast<size_t>(request.require_ll("job")));
            return response;
        }
        if (request.verb == "shutdown") {
            stop_.store(true);
            return ok();
        }
        throw Error("farm: unknown verb '" + request.verb + "'");
    } catch (const Error& e) {
        // Application-level failure: the frame was well-formed, the
        // connection stays usable.
        return error_message(e.what());
    }
}

}  // namespace slpwlo::farm
