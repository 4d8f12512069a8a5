#include "src/runner/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/runner/checkpoint.h"
#include "src/runner/parse.h"

namespace specbench {

namespace {

// Percent-encoding for request-line values: keeps every value free of the
// delimiters the line format uses (space between tokens, '=' inside a
// token, ',' inside a list) so CPU names like "Skylake Client" round-trip.
std::string EncodeValue(const std::string& s) {
  return PercentEncode(
      s, [](unsigned char c) { return c == ' ' || c == '=' || c == ',' || c < 0x20; });
}

// Splits a csv of percent-encoded values, decoding each element.
bool SplitEncodedList(const std::string& csv, std::vector<std::string>* out, std::string* error) {
  out->clear();
  for (const std::string& item : SplitList(csv)) {
    std::string decoded;
    if (!PercentDecode(item, &decoded)) {
      *error = "bad percent-encoding in \"" + item + "\"";
      return false;
    }
    out->push_back(decoded);
  }
  return true;
}

std::string JoinEncodedList(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); i++) {
    if (i != 0) {
      out.push_back(',');
    }
    out += EncodeValue(items[i]);
  }
  return out;
}

// send() the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as an
// error return instead of SIGPIPE killing the service.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Buffered newline-framed reader over a socket fd. Lines are bounded by
// kMaxServiceLineBytes, so a peer that never sends '\n' cannot grow the
// buffer without limit.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Reads the next '\n'-terminated line (newline and any trailing '\r'
  // stripped). Returns false on EOF, a socket error, or a line longer than
  // kMaxServiceLineBytes (then too_long() is true).
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t newline = buf_.find('\n', scanned_);
      if (newline != std::string::npos && newline <= kMaxServiceLineBytes) {
        *line = buf_.substr(0, newline);
        buf_.erase(0, newline + 1);
        scanned_ = 0;
        if (!line->empty() && line->back() == '\r') {
          line->pop_back();
        }
        return true;
      }
      if (newline != std::string::npos || buf_.size() > kMaxServiceLineBytes) {
        too_long_ = true;
        return false;
      }
      scanned_ = buf_.size();
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buf_;
  size_t scanned_ = 0;  // buf_[0, scanned_) holds no '\n'
  bool too_long_ = false;
};

std::string LineTooLongReason() {
  return "line exceeds " + std::to_string(kMaxServiceLineBytes) + " bytes";
}

bool FillSockAddr(const std::string& path, sockaddr_un* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    *error = "socket path must be 1.." + std::to_string(sizeof(addr->sun_path) - 1) +
             " bytes, got " + std::to_string(path.size());
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

bool ParseServiceRequest(const std::string& line, ServiceRequest* out, std::string* error) {
  const std::vector<std::string> tokens = SplitList(line, ' ');
  if (tokens.empty() || tokens[0] != "sweep") {
    *error = "request must start with \"sweep\"";
    return false;
  }
  ServiceRequest request;
  for (size_t t = 1; t < tokens.size(); t++) {
    const std::string& token = tokens[t];
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "token \"" + token + "\" is not key=value";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "grids") {
      request.grids = SplitList(value);
      if (request.grids.empty()) {
        *error = "grids= needs at least one grid name";
        return false;
      }
    } else if (key == "cpus") {
      if (!SplitEncodedList(value, &request.cpus, error)) {
        return false;
      }
    } else if (key == "workloads") {
      if (!SplitEncodedList(value, &request.workloads, error)) {
        return false;
      }
    } else if (key == "configs") {
      if (!SplitEncodedList(value, &request.configs, error)) {
        return false;
      }
    } else if (key == "seed") {
      if (!ParseU64Strict(value, &request.base_seed)) {
        *error = "seed=\"" + value + "\" is not a decimal u64";
        return false;
      }
    } else if (key == "seeds") {
      const size_t colon = value.find(':');
      if (colon == std::string::npos || !ParseU64Strict(value.substr(0, colon), &request.seed_begin) ||
          !ParseU64Strict(value.substr(colon + 1), &request.seed_end) ||
          request.seed_end < request.seed_begin) {
        *error = "seeds=\"" + value + "\" is not BEGIN:END with BEGIN <= END";
        return false;
      }
    } else if (key == "fast") {
      if (value != "0" && value != "1") {
        *error = "fast=\"" + value + "\" must be 0 or 1";
        return false;
      }
      request.fast = value == "1";
    } else if (key == "shard") {
      std::string shard_error;
      if (!ParseShardSpec(value, &request.shard, &shard_error)) {
        *error = "shard=\"" + value + "\": " + shard_error;
        return false;
      }
    } else {
      *error = "unknown request key \"" + key + "\"";
      return false;
    }
  }
  *out = request;
  return true;
}

std::string SerializeServiceRequest(const ServiceRequest& request) {
  std::string line = "sweep grids=";
  for (size_t i = 0; i < request.grids.size(); i++) {
    if (i != 0) {
      line.push_back(',');
    }
    line += request.grids[i];
  }
  line += " seeds=" + std::to_string(request.seed_begin) + ":" + std::to_string(request.seed_end);
  line += " seed=" + std::to_string(request.base_seed);
  line += " fast=" + std::string(request.fast ? "1" : "0");
  line += " shard=" + std::to_string(request.shard.index) + "/" +
          std::to_string(request.shard.count);
  if (!request.cpus.empty()) {
    line += " cpus=" + JoinEncodedList(request.cpus);
  }
  if (!request.workloads.empty()) {
    line += " workloads=" + JoinEncodedList(request.workloads);
  }
  if (!request.configs.empty()) {
    line += " configs=" + JoinEncodedList(request.configs);
  }
  return line;
}

SweepService::SweepService(ServiceOptions options, GridFactory factory)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      pool_(ThreadCountForJobs(options_.jobs)) {}

SweepService::~SweepService() {
  RequestShutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

bool SweepService::Start(std::string* error) {
  sockaddr_un addr;
  if (!FillSockAddr(options_.socket_path, &addr, error)) {
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + options_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) != 0) {
    *error = "listen " + options_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    return false;
  }
  return true;
}

void SweepService::Serve() {
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: listening on %s (%zu workers)\n", options_.socket_path.c_str(),
                 pool_.thread_count());
  }
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listen socket shut down (or unrecoverable) — stop accepting
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: shut down\n");
  }
}

void SweepService::RequestShutdown() {
  stop_.store(true);
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  }
  // Break every connection's recv() wait; in-flight batches still finish
  // (their replies go out — SHUT_RD leaves the send side open).
  for (int fd : conn_fds_) {
    ::shutdown(fd, SHUT_RD);
  }
}

void SweepService::HandleConnection(int fd) {
  LineReader reader(fd);
  std::string line;
  while (!stop_.load() && reader.ReadLine(&line)) {
    if (line.empty()) {
      continue;
    }
    if (!HandleRequestLine(fd, line)) {
      break;
    }
  }
  if (reader.too_long()) {
    SendAll(fd, "err request " + LineTooLongReason() + "\n");
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(fd);
  ::close(fd);
}

bool SweepService::HandleRequestLine(int fd, const std::string& line) {
  if (line == "ping") {
    return SendAll(fd, "pong\n");
  }
  if (line == "shutdown") {
    SendAll(fd, "bye\n");
    RequestShutdown();
    return false;
  }
  ServiceRequest request;
  std::string error;
  if (!ParseServiceRequest(line, &request, &error)) {
    return SendAll(fd, "err " + error + "\n");
  }
  Sweep sweep;
  if (!factory_(request, &sweep, &error)) {
    return SendAll(fd, "err " + error + "\n");
  }
  const size_t total = sweep.size();
  if (total == 0) {
    return SendAll(fd, "err request selects no cells\n");
  }
  const uint64_t grid_digest = sweep.GridDigest();
  const size_t selected = request.shard.CellCount(total);
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: sweep shard=%u/%u cells=%zu/%zu\n", request.shard.index,
                 request.shard.count, selected, total);
  }
  char ok[160];
  std::snprintf(ok, sizeof(ok), "ok cells=%zu base_seed=%llu grid=%016llx total=%zu\n", selected,
                static_cast<unsigned long long>(request.base_seed),
                static_cast<unsigned long long>(grid_digest), total);
  if (!SendAll(fd, ok)) {
    return false;
  }
  // A send failure mid-batch (client gone) stops the streaming but not the
  // batch: cells already queued on the shared pool run to completion.
  std::atomic<bool> client_alive{true};
  RunnerOptions options;
  options.base_seed = request.base_seed;
  options.pool = &pool_;
  const ShardSpec shard = request.shard;
  options.should_run = [shard](size_t i) { return shard.Owns(i); };
  options.on_cell_done = [fd, &client_alive](size_t i, const SweepCellResult& cell) {
    if (!client_alive.load()) {
      return;
    }
    if (!SendAll(fd, SerializeCellRecord(i, cell) + "\n")) {
      client_alive.store(false);
    }
  };
  sweep.Run(options);
  if (!client_alive.load()) {
    return false;
  }
  return SendAll(fd, "done " + std::to_string(selected) + "\n");
}

bool SubmitRequestLine(const std::string& socket_path, const std::string& request_line,
                       std::string* ok_line, std::vector<std::string>* reply_lines,
                       std::string* error) {
  ok_line->clear();
  reply_lines->clear();
  sockaddr_un addr;
  if (!FillSockAddr(socket_path, &addr, error)) {
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (!SendAll(fd, request_line + "\n")) {
    *error = "send: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  LineReader reader(fd);
  std::string line;
  if (!reader.ReadLine(&line)) {
    *error = reader.too_long() ? "reply " + LineTooLongReason()
                               : "connection closed before a reply";
    ::close(fd);
    return false;
  }
  if (line.rfind("err ", 0) == 0) {
    *error = line.substr(4);
    ::close(fd);
    return false;
  }
  *ok_line = line;
  if (line == "pong" || line == "bye") {
    ::close(fd);
    return true;
  }
  if (line.rfind("ok", 0) != 0) {
    *error = "unexpected reply \"" + line + "\"";
    ::close(fd);
    return false;
  }
  while (reader.ReadLine(&line)) {
    if (line.rfind("done", 0) == 0) {
      ::close(fd);
      return true;
    }
    reply_lines->push_back(line);
  }
  *error = reader.too_long() ? "reply " + LineTooLongReason()
                             : "connection closed before \"done\"";
  ::close(fd);
  return false;
}

}  // namespace specbench
