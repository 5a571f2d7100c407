#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_
/// \file harness.h
/// Shared pieces of the repository benchmark: clocks, run options, the
/// run report (attempted/failed operations plus named metrics), order-
/// independent row digests for answer checks, registry phases, and the
/// benchmark's own span tracer.
///
/// Everything here sits outside the library: spans wrap calls into the
/// public API, and layer counters come from the telemetry registry the
/// library already exports.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "sparql/bindings.h"

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

/// Monotonic wall clock, seconds.
double NowSeconds();
/// CPU time of the whole process (all threads), seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();
/// Peak resident set of the process so far, MiB.
double PeakRssMiB();
/// True in traced runs: the telemetry registry is on.
bool Traced();
/// Online processors (the run's thread budget is checked against it).
int Nproc();
/// Wall time of a fixed single-thread integer loop, ms. Recorded with
/// every run so that drift of the machine shows; never used to scale a
/// metric.
double CalibrationSpinMs();
/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run ("steal" in /proc/stat), summed over all CPUs,
/// seconds since boot; 0 where the kernel does not report it. Recorded
/// per run to tell a slow host apart from a slow program.
double StealSeconds();

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Sum(const std::vector<double>& v);

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Dataset size multiplier (1 = the benchmark's sizes); the benchmark's
  /// own tests run with a small scale.
  double scale = 1.0;
  /// Where run records, traces and durable-store files go (inside the
  /// checkout).
  std::string out_dir = ".bench_build/perfbench-out";
};

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one run: operations attempted and failed, every metric, and
/// the record written beside the trace.
class Report {
 public:
  /// One attempted operation; `ok == false` counts it as failed.
  void Check(bool ok, const std::string& what);
  /// One attempted operation that returned `s`.
  void CheckStatus(const dskg::Status& s, const std::string& what);

  void E2e(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Free-form entries of the run record (not printed as metrics).
  void Note(const std::string& key, double value) { notes_[key] = value; }

  /// Traced runs: checks that the layer times `parts_ms` (measured inside
  /// the library, read from the registry) are none negative and sum to no
  /// more than `wall_ms`, the benchmark's own wall time of the calls they
  /// split. A failed split is a failed operation; the largest share is
  /// reported as `common.layer_share_of_wall`.
  void CheckLayerSplit(const std::string& phase, double wall_ms,
                       const std::vector<std::pair<std::string, double>>& parts_ms);
  double max_layer_share() const;

  /// CPU seconds the benchmark spent checking answers inside the timed
  /// phase; subtracted from `cpu_s`.
  void AddCheckCpu(double seconds);
  double check_cpu_s() const;

  uint64_t attempted() const;
  uint64_t failed() const;
  const std::vector<Metric>& e2e() const { return e2e_; }
  const std::vector<Metric>& layer() const { return layer_; }
  const std::map<std::string, double>& notes() const { return notes_; }

 private:
  void Add(uint64_t attempted, uint64_t failed);
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double check_cpu_s_ = 0;
  double max_layer_share_ = 0;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::map<std::string, double> notes_;
};

// ---- answer digests --------------------------------------------------------

/// Order-independent digest of a result: the row count plus the wrapping
/// sum of a strong hash of each row's term texts, so two results with the
/// same multiset of rows digest equal regardless of order or of the
/// dictionary that encoded them.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const RowDigest&) const = default;
};
RowDigest DigestTable(const dskg::sparql::BindingTable& table,
                      const dskg::rdf::Dictionary& dict);
RowDigest DigestWireRows(const std::vector<std::vector<std::string>>& rows);

// ---- telemetry registry ----------------------------------------------------

/// Current value of a registry counter or gauge, or `<hist>.count|sum|p50|...`.
double RegistryValue(const std::string& name);

/// One measured phase of the global telemetry registry: construction
/// zeroes every metric, so values and histogram quantiles read later
/// cover this phase alone. Only meaningful while the registry is enabled
/// (traced runs).
class RegistryPhase {
 public:
  RegistryPhase();
  /// Current value of a counter or gauge, or `<hist>.count|sum|p50|...`.
  double Value(const std::string& name) const;
  /// Mean of a histogram's samples in this phase (0 when empty).
  double Mean(const std::string& hist) const;
};

// ---- span tracer -----------------------------------------------------------

/// The benchmark's span recorder. Disabled (the default) it records
/// nothing and `Span` costs one branch. Enabled, every span keeps its
/// name, start, end, parent (the enclosing span on the same thread) and
/// the id of the query it belongs to, in memory until `WriteJson`.
class Tracer {
 public:
  static Tracer& Get();
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Open(const char* name, uint64_t qid);
  void Close(int index);

  /// Self time (span minus the part of it its children cover), summed by
  /// span name, microseconds.
  std::map<std::string, double> SelfMicrosByName() const;
  /// Writes every span plus the per-name self-time table as JSON.
  dskg::Status WriteJson(const std::string& path,
                         const std::map<std::string, double>& record) const;

 private:
  struct Rec {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    uint64_t qid;
    int thread;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

/// RAII span around a call into one layer. Nests per thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t qid = 0)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Open(name, qid) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Get().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
