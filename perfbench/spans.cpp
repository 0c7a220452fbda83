#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  Layer layer;
  const char* name;
  Clock::time_point t0, t1;
};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Record> records;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<int>(g_buffers.size()) - 1;
    g_buffers.back()->records.reserve(1 << 14);
    return g_buffers.back().get();
  }();
  return *buf;
}

void record(Layer layer, const char* name, Clock::time_point t0,
            Clock::time_point t1) {
  if (g_enabled.load(std::memory_order_relaxed)) {
    local_buffer().records.push_back({layer, name, t0, t1});
  }
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Opt: return "opt";
    case Layer::Codegen: return "codegen";
    case Layer::Runtime: return "runtime";
    case Layer::Grid: return "grid";
    case Layer::Solvers: return "solvers";
    case Layer::Service: return "service";
    case Layer::Harness: return "harness";
  }
  return "?";
}

void spans_enable(bool on) { g_enabled.store(on); }

double Span::stop() {
  if (ms_ >= 0.0) return ms_;
  t1_ = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(t1_ - t0_).count();
  record(layer_, name_, t0_, t1_);
  return ms_;
}

void Span::nest_tail(Layer layer, const char* name, double ms) {
  stop();
  const auto len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(std::clamp(ms, 0.0, ms_)));
  record(layer, name, t1_ - len, t1_);
}

void spans_write(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::ofstream out(path);
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      out << b->thread << '\t' << layer_name(r.layer) << '\t' << r.name
          << '\t' << ns(r.t0) << '\t' << ns(r.t1) << '\n';
    }
  }
}

}  // namespace perfbench
