// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--out-dir DIR]
//   perfbench --list-metrics
//
// Runs one workload (analytic-watdiv, ingest-yago) for a fixed
// amount of work derived from --seconds, checks every answer, and prints
// one JSON line last: {"correct", "attempted", "failed", "metrics"}. A
// metric reported more than once (once per repetition of a timed phase)
// prints as the median of its values. With
// --trace 0 the metrics are the end-to-end set, measured with telemetry
// off; with --trace 1 they are the per-layer set, measured with the
// benchmark's spans and the telemetry registry on. A run record (and, when
// traced, every span) is written under --out-dir.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},    {"bytes_per_triple", "B"},
    {"query_p50_ms", "ms"},    {"query_p90_ms", "ms"},
    {"query_p99_ms", "ms"},    {"tti_wall_s", "s"},
    {"tuning_wall_s", "s"},    {"sim_tti_s", "s"},
    {"sim_tuning_s", "s"},     {"qps", "1/s"},
    {"ingest_ops_per_s", "1/s"}, {"apply_p50_ms", "ms"},
    {"apply_p90_ms", "ms"},    {"recover_s", "s"},
};

// Every per-layer metric, named by module. A layer a workload does not
// exercise reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"relstore.bulk_load_s", "s"},
    {"relstore.exec_ms", "ms"},
    {"relstore.exec_p50_ms", "ms"},
    {"relstore.sim_s", "s"},
    {"graphstore.exec_ms", "ms"},
    {"graphstore.exec_p50_ms", "ms"},
    {"graphstore.sim_s", "s"},
    {"graphstore.resident_triples", "count"},
    {"sparql.parse_us", "us"},
    {"sparql.parses", "count"},
    {"core.query_processor.prepare_us", "us"},
    {"core.query_processor.route_relational", "count"},
    {"core.query_processor.route_graph", "count"},
    {"core.query_processor.route_dual", "count"},
    {"core.query_processor.dual_exec_ms", "ms"},
    {"core.query_processor.migrate_sim_s", "s"},
    {"core.session.execute_self_us", "us"},
    {"core.session.plan_hit_ratio", "ratio"},
    {"core.session.replans", "count"},
    {"core.dotil.after_batch_ms", "ms"},
    {"core.dotil.migrations", "count"},
    {"core.dotil.evictions", "count"},
    {"core.dotil.setup_tune_s", "s"},
    {"core.online_store.apply_self_ms", "ms"},
    {"core.online_store.tune_exclusive_ms", "ms"},
    {"core.online_store.retunes", "count"},
    {"core.online_store.update_sim_s", "s"},
    {"core.online_store.reads_per_batch", "count"},
    {"persist.wal_append_us", "us"},
    {"persist.fsync_us", "us"},
    {"persist.wal_bytes_per_op", "B"},
    {"persist.snapshot_save_s", "s"},
    {"persist.snapshot_load_s", "s"},
    {"persist.replayed_batches", "count"},
    {"server.round_trip_us", "us"},
    {"server.request_us", "us"},
    {"server.wire_overhead_us", "us"},
    {"server.batch_size_mean", "count"},
    {"server.rejected", "count"},
    {"server.plan_cache_hit_ratio", "ratio"},
    {"common.cpu_per_wall", "ratio"},
    {"common.calib_spin_ms", "ms"},
    {"common.nproc", "count"},
    {"common.layer_share_of_wall", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload analytic-watdiv|ingest-yago "
               "--seed N --seconds S --trace 0|1 [--scale F] [--out-dir DIR]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void ListMetrics() {
  for (const MetricSpec& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
  for (const MetricSpec& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
}

/// Each metric's value: the median of the values reported under its name
/// (a workload that repeats its timed phase reports once per repetition).
std::map<std::string, double> MediansByName(const std::vector<Metric>& values) {
  std::map<std::string, std::vector<double>> all;
  for (const Metric& m : values) all[m.name].push_back(m.value);
  std::map<std::string, double> out;
  for (const auto& [name, v] : all) out[name] = Median(v);
  return out;
}

/// Prints `specs` from `values` as the "metrics" object; a missing
/// end-to-end metric is a benchmark bug and makes the run incorrect.
std::string MetricsJson(const MetricSpec* begin, const MetricSpec* end,
                        const std::vector<Metric>& values, bool required,
                        bool* complete) {
  const std::map<std::string, double> by_name = MediansByName(values);
  std::string out = "{";
  char buf[96];
  for (const MetricSpec* m = begin; m != end; ++m) {
    auto it = by_name.find(m->name);
    double v = 0;
    if (it != by_name.end() && std::isfinite(it->second)) {
      v = it->second;
    } else if (required) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", m->name);
      *complete = false;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (out.size() > 1) out.append(", ");
    out.append("\"").append(m->name).append("\": {\"value\": ").append(buf);
    out.append(", \"unit\": \"").append(m->unit).append("\"}");
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(v);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = opt.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--scale") {
      opt.scale = std::atof(v);
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || opt.scale <= 0) {
    return Usage();
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (opt.workload == "analytic-watdiv") run = RunAnalyticWatdiv;
  if (opt.workload == "ingest-yago") run = RunIngestYago;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  // The telemetry registry is on only in traced runs; untraced runs
  // measure the end-to-end metrics without it.
  dskg::telemetry::MetricsRegistry::Global().set_enabled(opt.trace);
  Tracer::Get().set_enabled(opt.trace);

  Report report;
  const double calib_ms = CalibrationSpinMs();
  report.Layer("common.calib_spin_ms", calib_ms, "ms");
  report.Layer("common.nproc", Nproc(), "count");
  report.Note("calib_spin_ms", calib_ms);
  report.Note("nproc", Nproc());
  report.Note("seed", static_cast<double>(opt.seed));
  report.Note("seconds", opt.seconds);
  report.Note("scale", opt.scale);

  const double steal0 = StealSeconds();
  run(opt, &report);
  // Drift diagnosis only: the calibration spin again at the end, and the
  // host's steal time over the run.
  report.Note("calib_spin_end_ms", CalibrationSpinMs());
  report.Note("steal_s", StealSeconds() - steal0);

  report.Layer("common.layer_share_of_wall", report.max_layer_share(), "ratio");

  std::map<std::string, double> record = report.notes();
  for (const auto& [name, v] : MediansByName(report.e2e())) record["e2e." + name] = v;
  for (const auto& [name, v] : MediansByName(report.layer())) record["layer." + name] = v;
  std::map<std::string, int> reps;
  for (const Metric& m : report.e2e()) {
    record["e2e." + m.name + ".rep" + std::to_string(reps[m.name]++)] = m.value;
  }
  const std::string record_path = opt.out_dir + "/" + opt.workload + "-seed" +
                                  std::to_string(opt.seed) + "-trace" +
                                  (opt.trace ? "1" : "0") + ".json";
  if (dskg::Status s = Tracer::Get().WriteJson(record_path, record); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
  }

  bool complete = true;
  std::string metrics;
  if (opt.trace) {
    metrics = MetricsJson(std::begin(kPerLayer), std::end(kPerLayer),
                          report.layer(), /*required=*/false, &complete);
  } else {
    metrics = MetricsJson(std::begin(kEndToEnd), std::end(kEndToEnd),
                          report.e2e(), /*required=*/true, &complete);
  }
  const bool correct = report.failed() == 0 && complete &&
                       report.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted())),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
