// Sweep-as-a-service: a request queue over a Unix-domain socket.
//
// `spectrebench serve --socket=PATH` turns the one-shot sweep CLI into a
// long-running service: clients connect, submit sweep-cell batches as
// single-line requests, and stream back one journal-compatible record per
// completed cell. All batches from all clients multiplex onto ONE shared
// thread pool (the PR-2 deterministic runner), so a small batch submitted
// while a large one is in flight starts immediately — the pool's workers
// drain whichever batch has cells queued, work-sharing across requests.
//
// Wire protocol (line-delimited UTF-8; one request line, streamed reply):
//
//   -> ping
//   <- pong
//
//   -> sweep grids=difftest seeds=0:50 cpus=Skylake%20Client,Zen%203
//            seed=1 fast=1 shard=0/2 [workloads=a,b] [configs=c,d]
//   <- ok cells=<selected> base_seed=<u64> grid=<hex16> total=<u64>
//   <- cell <checksum> <payload>        (one per completed cell,
//                                        completion order)
//   <- done <selected>
//
//   -> shutdown
//   <- bye                              (server stops accepting and exits
//                                        once in-flight batches finish)
//
//   <- err <reason>                     (any malformed or unsatisfiable
//                                        request)
//
// A line longer than kMaxServiceLineBytes gets "err request line exceeds
// <N> bytes" and the service closes that connection.
//
// The `cell` lines are exactly the checkpoint journal records of
// src/runner/checkpoint.h, and the `ok` line carries the journal header
// fields — so a client that writes the header plus the received records to
// a file has a valid journal that `spectrebench merge` accepts. Cell
// *content* is deterministic (same seeds, same bytes, per the cross-process
// determinism contract); only the arrival order varies.
//
// The service is grid-agnostic: a GridFactory injected by the CLI maps a
// parsed request onto a Sweep, keeping src/runner free of src/core
// dependencies.
#ifndef SPECTREBENCH_SRC_RUNNER_SERVICE_H_
#define SPECTREBENCH_SRC_RUNNER_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/shard.h"
#include "src/runner/sweep.h"
#include "src/runner/thread_pool.h"

namespace specbench {

// Longest line either side of the protocol accepts, newline excluded. A
// request is a few hundred bytes and a cell record a few KiB; the bound stops
// a client that never sends '\n' from growing the service's buffer.
inline constexpr size_t kMaxServiceLineBytes = size_t{1} << 20;

// One parsed "sweep ..." request line.
struct ServiceRequest {
  std::vector<std::string> grids = {"fig2", "fig3", "sec45"};
  std::vector<std::string> cpus;       // model names; empty = all
  std::vector<std::string> workloads;  // empty = no filter
  std::vector<std::string> configs;    // empty = no filter
  uint64_t base_seed = 1;
  uint64_t seed_begin = 0;  // difftest grid seed window
  uint64_t seed_end = 100;
  bool fast = false;        // the CLI's --fast: smaller sampler budget
  ShardSpec shard;
};

// Parses the key=value tokens after "sweep". Values are percent-encoded
// where they may contain spaces (cpu names). Returns false with a reason.
bool ParseServiceRequest(const std::string& line, ServiceRequest* out, std::string* error);
// Builds the request line `ParseServiceRequest` accepts (client side).
std::string SerializeServiceRequest(const ServiceRequest& request);

// Maps a request onto a sweep grid. Returns false with a reason (unknown
// grid or CPU name, empty selection, ...).
using GridFactory = std::function<bool(const ServiceRequest&, Sweep*, std::string*)>;

struct ServiceOptions {
  std::string socket_path;
  int jobs = 0;  // shared pool size; <= 0 = all cores (ThreadCountForJobs)
  bool quiet = false;
};

class SweepService {
 public:
  SweepService(ServiceOptions options, GridFactory factory);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  // Binds and listens on the socket (unlinking any stale one). Returns
  // false with a reason on failure.
  bool Start(std::string* error);
  // Accept loop: serves until a client sends "shutdown". Joins every
  // connection thread before returning.
  void Serve();
  // Asks the accept loop to stop (what the "shutdown" command calls).
  void RequestShutdown();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  void HandleConnection(int fd);
  bool HandleRequestLine(int fd, const std::string& line);

  ServiceOptions options_;
  GridFactory factory_;
  ThreadPool pool_;  // shared by every client batch
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::set<int> conn_fds_;
};

// Client helper: connects to `socket_path`, sends one request line, and
// collects the reply. On success `reply_lines` holds everything between
// (and excluding) the "ok ..." line — returned in `ok_line` — and the
// terminating "done" line. Used by `spectrebench submit` and the tests.
bool SubmitRequestLine(const std::string& socket_path, const std::string& request_line,
                       std::string* ok_line, std::vector<std::string>* reply_lines,
                       std::string* error);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_SERVICE_H_
