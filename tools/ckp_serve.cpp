// ckp_serve — the simulation job server front end.
//
// Two transports over the same JobServer (src/serve/server.hpp):
//
//   * pipe mode (default): requests are JSONL on stdin, responses are JSONL
//     on stdout. One process per batch; EOF or {"op":"shutdown"} ends it.
//     The reader stops reading while --queue_limit jobs are in flight, so
//     a batch of any length runs to completion without "queue full" errors.
//
//       ckp_serve --store_dir=STORE --workers=4 < jobs.jsonl
//
//   * socket mode: --socket=PATH binds a Unix stream socket and serves
//     concurrent connections against ONE shared JobServer (shared queue,
//     shared memo, shared workers). Each connection gets a reader thread,
//     joined by the accept loop after the next accept once its connection
//     has ended; responses are routed back to the connection whose request
//     earned them via the JobServer client tag, and job ids are scoped to
//     their connection. The server runs until any connection sends
//     {"op":"shutdown"} (which drains every client's jobs first).
//
//       ckp_serve --socket=/tmp/ckp.sock --store_dir=STORE &
//       ckp_serve_client --socket=/tmp/ckp.sock < jobs.jsonl
//
// Both transports read requests through one FdLineReader: a request line
// longer than 1 MiB is answered with one {"error":...} line and skipped up
// to its newline, and the stream keeps being served. Reads and writes
// interrupted by a signal (EINTR) are retried.
//
// Flags: --workers (worker threads = concurrent jobs), --queue_limit
// (queued plus running jobs; socket mode rejects past it, pipe mode
// waits), --engine_threads (rounds parallelism per job;
// only effective with --workers=1), --store_dir (result memo; empty
// disables), --heartbeat_every (seconds between serve.jobs liveness lines
// on stderr; 0 = off).
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace ckp;

// Longest request line accepted, in bytes (newline excluded). A longer line
// is answered with one error and dropped up to its newline, so a peer that
// never sends a newline cannot make the reader buffer without bound.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

// Line reader over a file descriptor (stdin or a connection); handles lines
// split across read() boundaries and retries reads interrupted by signals.
class FdLineReader {
 public:
  enum class Next { kLine, kTooLong, kEnd };

  explicit FdLineReader(int fd) : fd_(fd) {}

  // kLine with the next line in `out` (newline stripped; a final
  // unterminated line is returned before EOF). kTooLong once per line over
  // kMaxLineBytes, whose bytes are then skipped up to its newline. kEnd on
  // EOF or a read error.
  Next next(std::string* out) {
    std::size_t scanned = 0;  // buf_[0, scanned) holds no newline
    for (;;) {
      const auto eol = buf_.find('\n', scanned);
      if (eol != std::string::npos) {
        const bool skipped = std::exchange(skipping_, false);
        const bool too_long = eol > kMaxLineBytes;
        if (!skipped && !too_long) *out = buf_.substr(0, eol);
        buf_.erase(0, eol + 1);
        scanned = 0;
        if (skipped) continue;
        return too_long ? Next::kTooLong : Next::kLine;
      }
      if (skipping_ || buf_.size() > kMaxLineBytes) {
        buf_.clear();
        if (!std::exchange(skipping_, true)) return Next::kTooLong;
      }
      scanned = buf_.size();
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        if (buf_.empty()) return Next::kEnd;
        *out = std::move(buf_);
        buf_.clear();
        return Next::kLine;
      }
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buf_;
  bool skipping_ = false;  // inside an oversized line
};

// Writes the whole buffer, tolerating short and interrupted writes. Returns
// false when the peer is gone (job results for a vanished client are
// dropped, not fatal — SIGPIPE is ignored in main for the same reason).
bool write_all(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t put = ::write(fd, framed.data() + off, framed.size() - off);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

// One output stream (stdout or an accepted connection): the fd plus a write
// mutex, so workers finishing jobs never interleave bytes with the reader
// thread's immediate responses.
struct Conn {
  int fd = -1;
  std::mutex write_mu;
};

void send_line(Conn& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  write_all(conn.fd, line);
}

// Feeds the request lines read from `fd` to `server` under tag `client` and
// answers an oversized line on `out` itself. With `wait_for_room` the
// reader stops reading while the server's queue is full. Returns false once
// a line was a shutdown request (after the server drained), true at EOF.
bool serve_lines(JobServer& server, int fd, Conn& out, std::uint64_t client,
                 bool wait_for_room) {
  FdLineReader reader(fd);
  std::string line;
  for (;;) {
    switch (reader.next(&line)) {
      case FdLineReader::Next::kEnd:
        return true;
      case FdLineReader::Next::kTooLong: {
        JsonWriter w;
        w.begin_object();
        w.key("error").value("request line longer than " +
                             std::to_string(kMaxLineBytes) + " bytes");
        w.end_object();
        send_line(out, w.str());
        break;
      }
      case FdLineReader::Next::kLine:
        if (!server.handle_line(line, client)) return false;
        if (wait_for_room) server.wait_for_room();
        break;
    }
  }
}

int run_pipe_mode(const ServerOptions& options) {
  Conn out;
  out.fd = 1;  // stdout
  JobServer server(options,
                   [&out](const std::string& line) { send_line(out, line); });
  // A pipe has no client that could retry a "queue full" rejection, so the
  // reader waits for room instead. EOF drains like a shutdown so piped
  // batches always get every terminal response before exit (the destructor
  // drains too; this makes it explicit).
  if (serve_lines(server, 0, out, 0, /*wait_for_room=*/true)) server.drain();
  return 0;
}

// Connection registry keyed by client tag. Lines for a client that already
// disconnected are dropped (its jobs still run to completion; only the
// responses have nowhere to go).
class ConnTable {
 public:
  std::uint64_t add(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_id_++;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_[id] = std::move(conn);
    return id;
  }

  std::shared_ptr<Conn> find(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second;
  }

  void remove(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(id);
  }

  // Half-closes every live connection so blocked readers see EOF (used at
  // shutdown; the reader threads own the final ::close).
  void shutdown_all() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
};

int run_socket_mode(const ServerOptions& options, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CKP_CHECK_MSG(listener >= 0, "socket(): " << std::strerror(errno));
  ::unlink(path.c_str());  // stale socket from a killed server
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CKP_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                "socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  CKP_CHECK_MSG(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "bind(" << path << "): " << std::strerror(errno));
  CKP_CHECK_MSG(::listen(listener, 8) == 0,
                "listen(): " << std::strerror(errno));
  std::cerr << "[serve] listening on " << path << '\n';

  ConnTable conns;
  std::atomic<bool> running{true};
  // One JobServer shared by every connection: one queue, one memo, one set
  // of workers. The sink routes each response line to the connection whose
  // request earned it; a vanished client's lines are dropped.
  JobServer server(options, [&conns](const std::string& line,
                                     std::uint64_t client) {
    if (const std::shared_ptr<Conn> conn = conns.find(client)) {
      send_line(*conn, line);
    }
  });

  // A reader sets its done flag as its last act; the accept loop joins the
  // finished ones, so ended connections hold no thread until shutdown.
  struct Reader {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<Reader> readers;
  while (running.load()) {
    const int fd = ::accept(listener, nullptr, nullptr);
    std::erase_if(readers, [](Reader& r) {
      if (!r.done->load()) return false;
      r.thread.join();
      return true;
    });
    if (fd < 0) {
      if (!running.load()) break;
      continue;
    }
    const std::uint64_t client = conns.add(fd);
    Reader& reader = readers.emplace_back();
    reader.done = std::make_unique<std::atomic<bool>>(false);
    reader.thread = std::thread([&, fd, client, done = reader.done.get()] {
      const std::shared_ptr<Conn> conn = conns.find(client);
      if (!serve_lines(server, fd, *conn, client, /*wait_for_room=*/false)) {
        // Shutdown already drained every client's jobs; close the listener
        // and half-close all peers so the accept loop and the other readers
        // unwind.
        running.store(false);
        ::shutdown(listener, SHUT_RDWR);
        conns.shutdown_all();
      }
      conns.remove(client);
      ::close(fd);
      done->store(true);
    });
  }
  for (Reader& r : readers) r.thread.join();
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    Flags flags(argc, argv);
    ServerOptions options;
    options.workers = static_cast<int>(flags.get_int("workers", 2));
    options.queue_limit =
        static_cast<int>(flags.get_int("queue_limit", 64));
    options.engine_threads =
        static_cast<int>(flags.get_int("engine_threads", 0));
    options.store_dir = flags.get_string("store_dir", "");
    options.heartbeat_seconds = flags.get_double("heartbeat_every", 0.0);
    const std::string socket_path = flags.get_string("socket", "");
    flags.check_unknown();
    if (socket_path.empty()) return run_pipe_mode(options);
    return run_socket_mode(options, socket_path);
  } catch (const ckp::CheckFailure& e) {
    std::cerr << "ckp_serve: " << e.what() << '\n';
    return 2;
  }
}
