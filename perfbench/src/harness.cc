#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/telemetry.h"

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool Traced() { return dskg::telemetry::MetricsRegistry::Global().enabled(); }

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double CalibrationSpinMs() {
  // A dependent multiply-add chain: no memory traffic, no vectorization,
  // so it tracks the core's clock and nothing else.
  volatile uint64_t sink = 0;
  uint64_t x = 88172645463325252ULL;
  const double t0 = NowSeconds();
  for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  sink = x;
  (void)sink;
  return (NowSeconds() - t0) * 1e3;
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& x : v) in >> x;
  if (!in || cpu != "cpu") return 0;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---- statistics ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---- report ----------------------------------------------------------------

void Report::Add(uint64_t attempted, uint64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  Add(1, ok ? 0 : 1);
  if (!ok) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::CheckStatus(const dskg::Status& s, const std::string& what) {
  Check(s.ok(), s.ok() ? what : what + ": " + s.ToString());
}

void Report::E2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::CheckLayerSplit(
    const std::string& phase, double wall_ms,
    const std::vector<std::pair<std::string, double>>& parts_ms) {
  double sum = 0;
  bool nonnegative = true;
  std::string detail;
  for (const auto& [name, ms] : parts_ms) {
    sum += ms;
    nonnegative = nonnegative && ms >= 0;
    detail += " " + name + "=" + std::to_string(ms) + "ms";
  }
  const double share = wall_ms > 0 ? sum / wall_ms : 0;
  Note("layer_share." + phase, share);
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_layer_share_ = std::max(max_layer_share_, share);
  }
  Check(nonnegative && sum <= wall_ms,
        phase + ": layer times do not split its wall of " + std::to_string(wall_ms) +
            "ms:" + detail);
}

double Report::max_layer_share() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_layer_share_;
}

void Report::AddCheckCpu(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  check_cpu_s_ += seconds;
}

double Report::check_cpu_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return check_cpu_s_;
}

uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

// ---- answer digests --------------------------------------------------------

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over one cell's text, chained across the row; the length is
/// folded in so cell boundaries matter.
uint64_t HashCell(uint64_t h, std::string_view text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix(h ^ text.size());
}

}  // namespace

RowDigest DigestTable(const dskg::sparql::BindingTable& table,
                      const dskg::rdf::Dictionary& dict) {
  RowDigest d;
  d.rows = table.NumRows();
  for (size_t r = 0; r < table.NumRows(); ++r) {
    uint64_t h = 14695981039346656037ULL;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      h = HashCell(h, dict.TermOf(table.At(r, c)));
    }
    d.sum += Mix(h);
  }
  return d;
}

RowDigest DigestWireRows(const std::vector<std::vector<std::string>>& rows) {
  RowDigest d;
  d.rows = rows.size();
  for (const auto& row : rows) {
    uint64_t h = 14695981039346656037ULL;
    for (const std::string& cell : row) h = HashCell(h, cell);
    d.sum += Mix(h);
  }
  return d;
}

// ---- telemetry registry ----------------------------------------------------

RegistryPhase::RegistryPhase() {
  dskg::telemetry::MetricsRegistry::Global().Reset();
}

double RegistryPhase::Value(const std::string& name) const {
  return RegistryValue(name);
}

double RegistryValue(const std::string& name) {
  const auto now = dskg::telemetry::MetricsRegistry::Global().SnapshotValues();
  const auto it = now.find(name);
  return it == now.end() ? 0.0 : it->second;
}

double RegistryPhase::Mean(const std::string& hist) const {
  const double n = Value(hist + ".count");
  return n > 0 ? Value(hist + ".sum") / n : 0.0;
}

// ---- span tracer -----------------------------------------------------------

namespace {
thread_local int tls_open_span = -1;
thread_local int tls_thread_index = -1;
std::atomic<int> next_thread_index{0};

int ThreadIndex() {
  if (tls_thread_index < 0) tls_thread_index = next_thread_index.fetch_add(1);
  return tls_thread_index;
}

double NowMicros() { return NowSeconds() * 1e6; }
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Open(const char* name, uint64_t qid) {
  const int parent = tls_open_span;
  const int thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, NowMicros(), 0, parent, qid, thread});
  tls_open_span = static_cast<int>(spans_.size()) - 1;
  return tls_open_span;
}

void Tracer::Close(int index) {
  const double end = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_us = end;
  tls_open_span = spans_[index].parent;
}

namespace {

/// Length of the union of `[start,end)` intervals, clipped to [lo,hi).
double CoveredMicros(std::vector<std::pair<double, double>> iv, double lo,
                     double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0, cur_s = 0, cur_e = -1;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_e) {
      if (cur_e > cur_s) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) covered += cur_e - cur_s;
  return covered;
}

}  // namespace

std::map<std::string, double> Tracer::SelfMicrosByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Rec& s : spans_) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_us, s.end_us});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    self[s.name] += (s.end_us - s.start_us) -
                    CoveredMicros(kids[i], s.start_us, s.end_us);
  }
  return self;
}

dskg::Status Tracer::WriteJson(const std::string& path,
                               const std::map<std::string, double>& record) const {
  const std::map<std::string, double> self = SelfMicrosByName();
  std::ofstream out(path);
  if (!out) return dskg::Status::IoError("cannot write " + path);
  out.precision(17);
  out << "{\n  \"record\": {";
  bool first = true;
  for (const auto& [k, v] : record) {
    out << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  out << "},\n  \"self_us_by_name\": {";
  first = true;
  for (const auto& [k, v] : self) {
    out << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  out << "},\n  \"spans\": [\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    out << "    {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"parent\": " << s.parent << ", \"qid\": " << s.qid
        << ", \"thread\": " << s.thread << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out ? dskg::Status::OK() : dskg::Status::IoError("short write to " + path);
}

}  // namespace perfbench
