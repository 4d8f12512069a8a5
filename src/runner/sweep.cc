#include "src/runner/sweep.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "src/runner/seed.h"
#include "src/runner/thread_pool.h"
#include "src/util/text_table.h"

namespace specbench {

namespace {

// Shortest round-trippable decimal form: identical doubles always format to
// identical bytes, which the byte-determinism guarantee relies on.
std::string JsonDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void Sweep::Add(SweepCellKey key, CellFn run) {
  cells_.push_back(Cell{std::move(key), std::move(run)});
}

void Sweep::Merge(Sweep other) {
  for (Cell& cell : other.cells_) {
    cells_.push_back(std::move(cell));
  }
}

void Sweep::Retain(const std::function<bool(const SweepCellKey&)>& keep) {
  std::vector<Cell> kept;
  kept.reserve(cells_.size());
  for (Cell& cell : cells_) {
    if (keep(cell.key)) {
      kept.push_back(std::move(cell));
    }
  }
  cells_ = std::move(kept);
}

uint64_t Sweep::GridDigest() const {
  uint64_t h = kFnv1aBasis;
  for (const Cell& cell : cells_) {
    h = Fnv1a64(cell.key.cpu, h);
    h = Fnv1a64("\x1f", h);
    h = Fnv1a64(cell.key.config, h);
    h = Fnv1a64("\x1f", h);
    h = Fnv1a64(cell.key.workload, h);
    h = Fnv1a64("\x1e", h);  // record separator between cells
  }
  h = Fnv1a64(std::to_string(cells_.size()), h);
  return h;
}

SweepResult Sweep::Run(const RunnerOptions& options) const {
  SweepResult result;
  result.base_seed = options.base_seed;
  result.cells.resize(cells_.size());

  // Keys and seeds are filled for every slot — including ones a shard or
  // resume run skips — in registration order, before any cell executes.
  // Seeds depend only on (base_seed, key), so scheduling, sharding, and
  // skipping cannot influence them.
  size_t selected = 0;
  for (size_t i = 0; i < cells_.size(); i++) {
    result.cells[i].key = cells_[i].key;
    result.cells[i].seed = CellSeed(options.base_seed, cells_[i].key.cpu, cells_[i].key.config,
                                    cells_[i].key.workload);
    if (!options.should_run || options.should_run(i)) {
      selected++;
    }
  }

  // Private pool unless the caller multiplexes this batch onto a shared one
  // (service mode). With a shared pool, Run cannot Wait() for the whole pool
  // to drain — other batches may still be queued — so completion is tracked
  // per batch with a counter + condvar either way.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(ThreadCountForJobs(options.jobs));
    pool = owned_pool.get();
  }
  std::atomic<size_t> completed{0};
  std::mutex done_mu;  // serializes progress lines and the on_cell_done hook
  std::condition_variable batch_done;
  size_t remaining = selected;
  for (size_t i = 0; i < cells_.size(); i++) {
    if (options.should_run && !options.should_run(i)) {
      continue;
    }
    SweepCellResult* slot = &result.cells[i];
    const Cell* cell = &cells_[i];
    pool->Submit([slot, cell, i, selected, &options, &completed, &done_mu, &batch_done,
                  &remaining] {
      const auto start = std::chrono::steady_clock::now();
      slot->output = cell->run(slot->seed);
      slot->wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      const size_t done = completed.fetch_add(1) + 1;
      std::lock_guard<std::mutex> lock(done_mu);
      if (options.progress) {
        std::fprintf(stderr, "[%zu/%zu] %s/%s/%s %.1f ms\n", done, selected,
                     cell->key.cpu.c_str(), cell->key.config.c_str(),
                     cell->key.workload.c_str(), slot->wall_ms);
      }
      if (options.on_cell_done) {
        options.on_cell_done(i, *slot);
      }
      if (--remaining == 0) {
        batch_done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  batch_done.wait(lock, [&remaining] { return remaining == 0; });
  return result;
}

std::vector<GroupRollup> SweepResult::GeomeanByCpu(const std::string& metric_id) const {
  // Accumulate in first-appearance order so the rollup order is as
  // deterministic as the cell order.
  std::vector<GroupRollup> rollups;
  std::vector<double> log_sums;
  for (const SweepCellResult& cell : cells) {
    for (const CellMetric& metric : cell.output.metrics) {
      if (metric.id != metric_id) {
        continue;
      }
      const double ratio = 1.0 + metric.estimate.value / 100.0;
      if (!(ratio > 0.0)) {
        continue;  // geomean undefined for <= -100% overheads
      }
      size_t g = 0;
      while (g < rollups.size() && rollups[g].group != cell.key.cpu) {
        g++;
      }
      if (g == rollups.size()) {
        rollups.push_back(GroupRollup{cell.key.cpu, metric_id, 0.0, 0});
        log_sums.push_back(0.0);
      }
      log_sums[g] += std::log(ratio);
      rollups[g].cells++;
    }
  }
  for (size_t g = 0; g < rollups.size(); g++) {
    rollups[g].geomean_pct =
        (std::exp(log_sums[g] / static_cast<double>(rollups[g].cells)) - 1.0) * 100.0;
  }
  return rollups;
}

std::string SweepResult::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"base_seed\": " << base_seed << ",\n  \"cells\": [";
  for (size_t i = 0; i < cells.size(); i++) {
    const SweepCellResult& cell = cells[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"cpu\": \"" << JsonEscape(cell.key.cpu) << "\", \"config\": \""
        << JsonEscape(cell.key.config) << "\", \"workload\": \"" << JsonEscape(cell.key.workload)
        << "\", \"seed\": " << cell.seed << ", \"samples\": " << cell.output.samples
        << ", \"converged\": " << (cell.output.converged ? "true" : "false")
        << ", \"saw_non_finite\": " << (cell.output.saw_non_finite ? "true" : "false")
        << ", \"metrics\": [";
    for (size_t m = 0; m < cell.output.metrics.size(); m++) {
      const CellMetric& metric = cell.output.metrics[m];
      out << (m == 0 ? "" : ", ") << "{\"id\": \"" << JsonEscape(metric.id) << "\", \"label\": \""
          << JsonEscape(metric.label) << "\", \"value\": " << JsonDouble(metric.estimate.value)
          << ", \"ci95\": " << JsonDouble(metric.estimate.ci95) << "}";
    }
    out << "]}";
  }
  out << "\n  ],\n  \"rollups\": [";
  const std::vector<GroupRollup> rollups = GeomeanByCpu("total");
  for (size_t g = 0; g < rollups.size(); g++) {
    out << (g == 0 ? "\n" : ",\n");
    out << "    {\"cpu\": \"" << JsonEscape(rollups[g].group) << "\", \"metric\": \""
        << JsonEscape(rollups[g].metric)
        << "\", \"geomean_pct\": " << JsonDouble(rollups[g].geomean_pct)
        << ", \"cells\": " << rollups[g].cells << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

double SweepResult::total_wall_ms() const {
  double total = 0.0;
  for (const SweepCellResult& cell : cells) {
    total += cell.wall_ms;
  }
  return total;
}

std::string SweepResult::ToCsv() const {
  std::vector<std::vector<std::string>> rows;
  for (const SweepCellResult& cell : cells) {
    for (const CellMetric& metric : cell.output.metrics) {
      rows.push_back({cell.key.cpu, cell.key.config, cell.key.workload,
                      std::to_string(cell.seed), metric.id, JsonDouble(metric.estimate.value),
                      JsonDouble(metric.estimate.ci95), std::to_string(cell.output.samples),
                      cell.output.converged ? "true" : "false"});
    }
  }
  return RenderCsv(
      {"cpu", "config", "workload", "seed", "metric", "value", "ci95", "samples", "converged"},
      rows);
}

}  // namespace specbench
