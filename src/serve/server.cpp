#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/wire.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "serve/protocol.hpp"

namespace dfv::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Flooding cap on a connection's receive buffer: frames are consumed
/// after every read, so the buffer holds one partial frame plus what a
/// single read burst delivered — a peer that pipelines past two maximal
/// frames at once is shedding load onto us and gets evicted instead.
constexpr std::size_t kMaxConnBacklogBytes = std::size_t(kMaxFrameBytes) * 2;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= std::uint64_t(p[i]);
    h *= kFnvPrime;
  }
}

void fnv_u32(std::uint64_t& h, std::uint32_t v) noexcept {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = (unsigned char)((v >> (8 * i)) & 0xff);
  fnv_bytes(h, b, 4);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DFV_CHECK_MSG(flags >= 0, "serve: fcntl(F_GETFL) failed");
  DFV_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "serve: fcntl(F_SETFL) failed");
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

std::uint64_t key_fingerprint(std::string_view app, int nodes) noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, app.data(), app.size());
  fnv_bytes(h, "\0", 1);
  fnv_u32(h, std::uint32_t(nodes));
  return h;
}

std::uint64_t key_fingerprint(std::string_view app, int nodes,
                              std::uint32_t run) noexcept {
  std::uint64_t h = key_fingerprint(app, nodes);
  fnv_bytes(h, "\0", 1);
  fnv_u32(h, run);
  return h;
}

std::uint64_t request_key(const api::Request& req) noexcept {
  return std::visit(
      Overloaded{
          [](const api::RunLookupRequest& q) {
            return key_fingerprint(q.app_name, q.node_count, q.run_index);
          },
          [](const api::ForecastRequest& q) {
            return key_fingerprint(q.app_name, q.node_count, q.run_index);
          },
          [](const api::NeighborhoodRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::DeviationRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::ForecastEvalRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::ForecastGridRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const auto&) { return std::uint64_t(0); },
      },
      req);
}

std::size_t shard_of(std::uint64_t key, std::size_t nshards) {
  DFV_CHECK_MSG(nshards > 0, "serve: shard_of needs at least one shard");
  return std::size_t(key % std::uint64_t(nshards));
}

// ---------------------------------------------------------------------------
// Shard: everything one shard thread owns. Only `mu`/`accepted`, the wake
// pipe and the `quiescent` flag are touched by other threads; the rest is
// private to `thread`.
// ---------------------------------------------------------------------------

struct Server::Shard {
  struct Conn {
    bool hello_done = false;
    bool peer_closed = false;  ///< read side saw EOF
    bool close_after_flush = false;
    std::string in;   ///< received, not yet framed
    std::string out;  ///< encoded frames, not yet written
    // Stall countdowns ({} = not counting): read_start is set while a
    // frame sits incomplete in `in`, write_start while `out` waits to
    // drain. Both reset whenever the respective buffer empties.
    Clock::time_point read_start{};
    Clock::time_point write_start{};
  };

  explicit Shard(api::Session sess) : session(std::move(sess)) {}

  /// Hand an accepted socket to this shard (acceptor thread).
  void hand_off(int fd) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      accepted.push_back(fd);
    }
    wake();
  }

  void wake() const noexcept {
    const char byte = 1;
    // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
    (void)::write(wake_wr, &byte, 1);
  }

  api::Session session;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread thread;
  std::atomic<bool> quiescent{false};

  std::mutex mu;
  std::vector<int> accepted;  // guarded by mu

  // Shard-thread-private state: connections by socket fd.
  std::map<int, Conn> conns;
};

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  DFV_CHECK_MSG(opt_.shards >= 1 && opt_.shards <= exec::kMaxThreads,
                "serve: shard count " << opt_.shards << " is outside [1, " << exec::kMaxThreads
                                      << "]");
  DFV_CHECK_MSG(opt_.listen_backlog >= 1, "serve: listen backlog must be positive");
  DFV_CHECK_MSG(opt_.drain_timeout_ms > 0, "serve: drain timeout must be positive");
}

Server::~Server() { stop(); }

void Server::start() {
  DFV_CHECK_MSG(!running_, "serve: start() called twice");

  // Load the campaign before opening the port: a resident server never
  // answers its first query cold.
  campaign_ = opt_.campaign ? opt_.campaign : api::ResidentCampaign::load(opt_.session);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DFV_CHECK_MSG(listen_fd_ >= 0, "serve: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    DFV_CHECK_MSG(false, "serve: bind failed: " + why);
  }
  DFV_CHECK_MSG(::listen(listen_fd_, opt_.listen_backlog) == 0, "serve: listen failed");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  DFV_CHECK_MSG(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0,
      "serve: getsockname failed");
  port_ = ntohs(bound.sin_port);

  // The local listener beside it. A name someone else holds fails the
  // start: serving TCP alone would hand every local client to them.
  sockaddr_un local{};
  const socklen_t local_len = unix_address(port_, local);
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0 ||
      ::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&local), local_len) != 0 ||
      ::listen(unix_fd_, opt_.listen_backlog) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(unix_fd_);
    close_fd(listen_fd_);
    DFV_CHECK_MSG(false, "serve: cannot listen on " + unix_label(port_) + ": " + why);
  }
  // Non-blocking: a connection that vanishes between poll and accept
  // must not park the acceptor in accept().
  set_nonblocking(listen_fd_);
  set_nonblocking(unix_fd_);

  shards_.clear();
  for (int i = 0; i < opt_.shards; ++i) {
    auto shard = std::make_unique<Shard>(api::Session(opt_.session, campaign_));
    int fds[2] = {-1, -1};
    DFV_CHECK_MSG(::pipe(fds) == 0, "serve: pipe() failed");
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    shard->wake_rd = fds[0];
    shard->wake_wr = fds[1];
    shards_.push_back(std::move(shard));
  }

  phase_.store(0);
  running_.store(true);
  for (auto& shard : shards_)
    shard->thread = std::thread([this, s = shard.get()] { shard_main(*s); });
  acceptor_ = std::thread([this] { acceptor_main(); });

  DFV_LOG_INFO("serve: listening on 127.0.0.1:" << port_ << " and " << unix_label(port_)
                                                << " with " << shards_.size()
                                                << " shard(s)");
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // Phase 1 (drain): stop accepting and stop reading; every request whose
  // frame was fully received keeps its right to a response.
  phase_.store(1);
  // Shutting a listener down wakes the acceptor's poll on it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::shutdown(unix_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) shard->wake();

  // Wait (bounded by drain_timeout_ms) until every shard is quiescent. A
  // draining shard reads nothing new, so once quiescent it stays so.
  // Requests still buffered past the deadline are answered with a
  // structured ShuttingDown error instead of being handled.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opt_.drain_timeout_ms);
  while (Clock::now() < deadline) {
    bool idle = true;
    for (auto& shard : shards_) idle = idle && shard->quiescent.load();
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 2 (exit): close everything and join.
  phase_.store(2);
  for (auto& shard : shards_) shard->wake();
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  for (auto& shard : shards_) {
    if (shard->wake_rd >= 0) ::close(shard->wake_rd);
    if (shard->wake_wr >= 0) ::close(shard->wake_wr);
  }
  shards_.clear();
  // The name first: once the port is free, so is the name that goes with it.
  close_fd(unix_fd_);
  close_fd(listen_fd_);
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  s.connections = stat_connections_.load();
  s.requests = stat_requests_.load();
  s.local = stat_local_.load();
  s.shed_deadline = stat_shed_deadline_.load();
  s.evicted_stalled = stat_evicted_.load();
  s.shutdown_aborted = stat_shutdown_aborted_.load();
  return s;
}

std::string Server::encoded_stats_response() const {
  const ServerStats s = stats();
  return api::encode_response(api::Response{api::StatsResponse{
      std::uint32_t(shards_.size()), s.connections, s.requests, s.local, s.forwarded,
      s.shed_overload, s.shed_deadline, s.evicted_stalled, s.shutdown_aborted}});
}

void Server::acceptor_main() {
  pollfd listeners[2] = {{listen_fd_, POLLIN, 0}, {unix_fd_, POLLIN, 0}};
  while (true) {
    if (::poll(listeners, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // stop() moves the phase on before it shuts the listeners down.
    if (phase_.load() != 0) return;
    for (const pollfd& l : listeners) {
      if (l.revents == 0) continue;
      const int fd = ::accept(l.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED)
          continue;
        return;  // a real failure: stop accepting
      }
      if (phase_.load() != 0) {
        ::close(fd);
        continue;
      }
      stat_connections_.fetch_add(1);
      const std::size_t idx =
          std::size_t(next_conn_shard_.fetch_add(1) % std::uint64_t(shards_.size()));
      shards_[idx]->hand_off(fd);
    }
  }
}

void Server::shard_main(Shard& shard) {
  DFV_CHECK_MSG(shard.wake_rd >= 0, "serve: shard started without a wake pipe");

  // Answer one framed request arriving on `conn` (already past hello).
  const auto answer = [&](Shard::Conn& conn, std::string_view payload) {
    stat_requests_.fetch_add(1);
    api::RequestEnvelope env;
    try {
      env = api::decode_request_envelope(payload);
    } catch (...) {
      // Malformed or version-skewed: handle_encoded turns it into the
      // matching structured ErrorResponse.
      append_frame(conn.out, api::handle_encoded(shard.session, payload));
      return;
    }
    stat_local_.fetch_add(1);
    if (std::holds_alternative<api::StatsRequest>(env.request)) {
      append_frame(conn.out, encoded_stats_response());
      return;
    }
    const std::uint32_t deadline_ms =
        env.meta.deadline_ms != 0 ? env.meta.deadline_ms : opt_.default_deadline_ms;
    const auto deadline_at = Clock::now() + std::chrono::milliseconds(deadline_ms);
    std::string resp = api::encode_response(shard.session.handle(env.request));
    if (deadline_ms != 0 && Clock::now() > deadline_at) {
      // Never ship a result the caller has already given up on: the
      // stale bytes are replaced by the structured expiry, whose bytes
      // depend on the deadline alone (never on timing).
      stat_shed_deadline_.fetch_add(1);
      resp = api::encode_response(api::ErrorResponse{
          api::ErrorCode::DeadlineExceeded, "serve: deadline of " +
                                                std::to_string(deadline_ms) +
                                                "ms expired while handling the request"});
    }
    append_frame(conn.out, resp);
  };

  // Consume every complete frame buffered in conn.in, in order. Past the
  // drain deadline (phase 2) requests are no longer handled: each one is
  // answered ShuttingDown instead, so none is silently dropped.
  const auto drain_frames = [&](Shard::Conn& conn) {
    while (!conn.close_after_flush) {
      const FrameSpan f = frame_at(conn.in);
      if (f.status == FrameSpan::Oversized) {
        conn.close_after_flush = true;  // malformed peer; drop it
        return;
      }
      if (f.status == FrameSpan::NeedMore) return;
      const std::string payload = conn.in.substr(4, f.len);
      conn.in.erase(0, std::size_t(4) + f.len);
      if (!conn.hello_done) {
        const auto version = parse_hello(payload);
        if (!version) {
          append_frame(conn.out,
                       api::encode_response(api::ErrorResponse{
                           api::ErrorCode::BadRequest, "serve: bad handshake frame"}));
          conn.close_after_flush = true;
          return;
        }
        if (*version != api::kApiVersion) {
          append_frame(
              conn.out,
              api::encode_response(api::ErrorResponse{
                  api::ErrorCode::VersionMismatch,
                  "serve: protocol version " + std::to_string(*version) +
                      " not supported (server speaks " +
                      std::to_string(api::kApiVersion) + ")"}));
          conn.close_after_flush = true;
          return;
        }
        append_frame(conn.out, hello_payload(api::kApiVersion));
        conn.hello_done = true;
        continue;
      }
      if (phase_.load() == 2) {
        stat_shutdown_aborted_.fetch_add(1);
        append_frame(conn.out,
                     api::encode_response(api::ErrorResponse{
                         api::ErrorCode::ShuttingDown,
                         "serve: server shut down before the response was ready"}));
        continue;
      }
      answer(conn, payload);
    }
  };

  // Write as much of conn.out as the socket takes without blocking; a
  // partial write leaves the rest for a POLLOUT pass.
  const auto flush = [](int fd, Shard::Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t w = ::send(fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (w > 0) {
        conn.out.erase(0, std::size_t(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.close_after_flush = true;  // broken pipe etc.: give up on it
      conn.out.clear();
      return;
    }
  };

  std::vector<pollfd> fds;

  while (true) {
    const int phase = phase_.load();
    if (phase == 2) break;

    // Adopt sockets the acceptor dealt to this shard.
    std::vector<int> accepted;
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      accepted.swap(shard.accepted);
    }
    for (const int fd : accepted) {
      set_nonblocking(fd);
      set_nodelay(fd);
      shard.conns.emplace(fd, Shard::Conn{});
    }

    // Flush what a partial write left; evict stalled peers; reap
    // finished connections. One `now` per pass keeps the sweep cheap.
    const auto now = Clock::now();
    for (auto it = shard.conns.begin(); it != shard.conns.end();) {
      const int fd = it->first;
      Shard::Conn& conn = it->second;
      flush(fd, conn);
      // Stall countdowns run only while a frame or a flush is pending;
      // an idle connection between frames never ticks.
      if (conn.in.empty())
        conn.read_start = Clock::time_point{};
      else if (conn.read_start == Clock::time_point{})
        conn.read_start = now;
      if (conn.out.empty())
        conn.write_start = Clock::time_point{};
      else if (conn.write_start == Clock::time_point{})
        conn.write_start = now;
      const bool read_stalled =
          phase == 0 && opt_.read_timeout_ms != 0 && conn.read_start != Clock::time_point{} &&
          now - conn.read_start > std::chrono::milliseconds(opt_.read_timeout_ms);
      const bool write_stalled =
          phase == 0 && opt_.write_timeout_ms != 0 &&
          conn.write_start != Clock::time_point{} &&
          now - conn.write_start > std::chrono::milliseconds(opt_.write_timeout_ms);
      const bool flooded = conn.in.size() > kMaxConnBacklogBytes;
      if (read_stalled || write_stalled || flooded) {
        // A peer that cannot complete a frame, cannot drain its
        // responses, or floods past the backlog cap is wedging shard
        // resources: cut it.
        stat_evicted_.fetch_add(1);
        ::close(fd);
        it = shard.conns.erase(it);
        continue;
      }
      const bool done = conn.out.empty() && (conn.close_after_flush || conn.peer_closed);
      if (done) {
        ::close(fd);
        it = shard.conns.erase(it);
      } else {
        ++it;
      }
    }

    if (phase == 1) {
      // Draining: nothing new is read, so the shard is quiescent once
      // every answer has been flushed.
      bool idle = true;
      for (const auto& [fd, conn] : shard.conns) idle = idle && conn.out.empty();
      shard.quiescent.store(idle);
    }

    // Poll: wake pipe always; sockets for writes always, reads only
    // while serving (phase 0).
    fds.clear();
    fds.push_back(pollfd{shard.wake_rd, POLLIN, 0});
    for (const auto& [fd, conn] : shard.conns) {
      short events = 0;
      if (!conn.out.empty()) events = short(events | POLLOUT);
      if (phase == 0 && !conn.close_after_flush) events = short(events | POLLIN);
      if (events != 0) fds.push_back(pollfd{fd, events, 0});
    }
    const int rc = spin_then_poll(fds.data(), nfds_t(fds.size()), 200);
    if (rc < 0 && errno != EINTR) break;  // poll failure: shard gives up
    if (rc <= 0) continue;

    // Drain the wake pipe.
    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(shard.wake_rd, buf, sizeof(buf)) > 0) {
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int fd = fds[i].fd;
      Shard::Conn& conn = shard.conns.at(fd);
      // Read what is available, frame it, and send the answers in the
      // same pass. A short read means the socket is drained: poll is
      // level-triggered, so bytes arriving later wake the next pass, and
      // a further read here would only return EAGAIN.
      char buf[16384];
      while (true) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r > 0) {
          conn.in.append(buf, std::size_t(r));
          if (std::size_t(r) < sizeof(buf)) break;
          continue;
        }
        if (r == 0) {
          conn.peer_closed = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn.peer_closed = true;  // hard error: treat as closed
        break;
      }
      drain_frames(conn);
      flush(fd, conn);
    }
  }

  // Phase 2 cleanup: flush what we can without blocking — best-effort
  // courtesy, never a hang — then close. Every complete frame was
  // already answered by drain_frames, handled or ShuttingDown. Sockets
  // dealt to a shard too busy to adopt them before the exit just close.
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (const int fd : shard.accepted) ::close(fd);
    shard.accepted.clear();
  }
  for (auto& [fd, conn] : shard.conns) {
    flush(fd, conn);  // EAGAIN/EPIPE/…: best effort only
    ::close(fd);
  }
  shard.conns.clear();
}

}  // namespace dfv::serve
