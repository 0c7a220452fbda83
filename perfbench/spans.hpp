// Benchmark-side spans: wall-clock intervals around calls into the
// library's public API, tagged with the module (layer) they enter.
//
// Each thread appends to its own buffer (no sharing, no locks on the hot
// path); the buffers are written to one file after every benchmark
// thread has been joined. run.py turns the file into per-layer self
// time. Recording is off unless spans_enable(true) was called; the
// elapsed time of a Span is measured either way, because the workloads
// also use it for their metrics.
//
// Layer::Harness marks the benchmark's own work (inputs, reference
// solvers, checks, the bandwidth probe): it is recorded so nested calls
// keep their parent, but it is not part of any layer's share.
#pragma once

#include <chrono>
#include <string>

namespace perfbench {

enum class Layer { Opt, Codegen, Runtime, Grid, Solvers, Service, Harness };

const char* layer_name(Layer l);

void spans_enable(bool on);

/// Write every thread's buffered spans as tab-separated lines
/// `thread layer name start_ns end_ns`. Call once, after all threads
/// that recorded spans have finished.
void spans_write(const std::string& path);

class Span {
public:
  Span(Layer layer, const char* name)
      : layer_(layer), name_(name), t0_(std::chrono::steady_clock::now()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent) and return its length in milliseconds.
  double stop();

  /// End the span and record a child of `ms` milliseconds (at most the
  /// span's length) that ends where the span ends: work another thread
  /// did for this call, such as the solve a service worker ran while
  /// the caller waited.
  void nest_tail(Layer layer, const char* name, double ms);

private:
  Layer layer_;
  const char* name_;
  std::chrono::steady_clock::time_point t0_, t1_;
  double ms_ = -1.0;
};

}  // namespace perfbench
