#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_
/// \file workloads.h
/// The benchmark workloads and the pieces they share: the catalog runner,
/// set-up tuning, the write-then-restart phase that measures apply latency
/// and recovery on every workload, and the wire phase.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/dotil.h"
#include "core/online_store.h"
#include "core/session.h"
#include "harness.h"
#include "persist/wal.h"
#include "workload/workload.h"

namespace perfbench {

void RunAnalyticWatdiv(const Options& opt, Report* report);
void RunIngestYago(const Options& opt, Report* report);

// ---- fixed sizes -----------------------------------------------------------
// Work scales with --seconds through these fixed rates (never through a
// clock), so one --seconds value always means the same work.

/// Set-ups per run. Each is followed by one repetition of the timed
/// phase; every metric reports the median over them.
inline constexpr int kSetupReps = 3;
inline constexpr int kPoolWorkers = 2;        ///< load/exec/probe pool
inline constexpr int kOpsPerBatch = 1000;     ///< update ops per batch
inline constexpr int kQueryBatches = 5;       ///< the paper's batches

/// The graph and the catalog's bindings are each workload's fixed inputs,
/// like the paper's fixed datasets and query sets. The run seed draws the
/// rest: the order the catalog runs in (and so what DOTIL sees batch by
/// batch), the update stream, and the wire clients' orders. (With a
/// per-seed catalog the seed-to-seed spread of sim_tti_s was 0.14-0.60 of
/// its median; see NOTES.md.)
inline constexpr uint64_t kGraphSeed = 1;
inline constexpr uint64_t kCatalogSeed = 1;

/// B_G: the graph store may hold the whole graph, so DOTIL migrates what
/// it learns pays off and never has to evict. (With B_G at 25% of the
/// triples its eviction choices, and with them every simulated and wall
/// time, swung by 2-4x from one catalog seed to the next.)
inline uint64_t GraphBudget(const dskg::rdf::Dataset& ds) { return ds.num_triples(); }

/// Generator target for a workload at `opt.scale`.
uint64_t ScaledTriples(uint64_t base, const Options& opt);

/// Sub-seed of the run seed for one input (dataset, catalog, updates).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// ---- set-up ----------------------------------------------------------------

/// One set-up's wall time and its parts.
struct SetupSample {
  double total_s = 0;
  double generate_s = 0;  ///< dataset, catalog and update-stream generation
  double load_s = 0;      ///< bulk load (+ the initial snapshot when durable)
  double tune_s = 0;      ///< set-up tuning
  double snapshot_save_s = 0;  ///< initial snapshot (durable stores)
};

/// Set-ups of one run; each metric reports the median over them.
struct SetupTimes {
  std::vector<SetupSample> samples;
  void Add(const SetupSample& s) { samples.push_back(s); }
  /// setup_s plus the set-up layer metrics.
  void Publish(Report* report) const;
};

// ---- catalog ---------------------------------------------------------------

/// The workload's query catalog: `versions` instances of every template,
/// bound by the library's WorkloadBuilder from `kCatalogSeed`, in an order
/// drawn from `order_seed`.
dskg::workload::Workload BuildCatalog(
    const dskg::rdf::Dataset& ds,
    const std::vector<dskg::workload::QueryTemplate>& templates, int versions,
    uint64_t order_seed, const std::string& name);

/// Binds `wq`'s parameters on a handle prepared from its text and
/// executes it. A bound term that is no longer in the dictionary (deleted
/// by updates) cannot match anything; that is reported as
/// `*vanished = true` with an OK status and no execution.
dskg::Result<dskg::core::QueryExecution> ExecuteWorkloadQuery(
    dskg::core::Session* session, const dskg::workload::WorkloadQuery& wq,
    bool* vanished);

/// Complex subqueries (the tuner's input) of queries [begin, end).
std::vector<dskg::sparql::Query> ComplexSubqueries(
    const dskg::workload::Workload& w, size_t begin, size_t end);

/// One DOTIL pass over the catalog in the paper's batches, each batch's
/// complex subqueries fed to `AfterBatch` inside `TuneExclusive`.
/// Returns the simulated tuning cost in seconds through `sim_s`.
dskg::Status TuneOverCatalog(dskg::core::OnlineStore* store,
                             dskg::core::DotilTuner* tuner,
                             const dskg::workload::Workload& w, double* sim_s);

/// Digest of each catalog query's answer on `store` (a vanished binding
/// digests as zero rows) plus the summed simulated charge.
struct CatalogAnswers {
  std::vector<RowDigest> digests;
  double sim_s = 0;
};
CatalogAnswers AnswerCatalog(dskg::core::OnlineStore* store,
                             const dskg::workload::Workload& w, Report* report,
                             const char* what);

/// Per-query outcomes of a timed phase.
struct QueryTally {
  std::vector<double> latency_ms;
  std::vector<int> template_of;  ///< catalog template of each sample
  double sim_s = 0;
  double rel_sim_s = 0;
  double graph_sim_s = 0;
  double migrate_sim_s = 0;
  uint64_t by_route[4] = {0, 0, 0, 0};  ///< indexed by `core::Route`

  void Add(const dskg::core::QueryExecution& e, double wall_ms, int template_index);
  void Merge(const QueryTally& other);
};

/// The query-side end-to-end metrics every workload reports: latency
/// quantiles, summed query wall time (TTI on the real clock) and
/// completed queries per second of `query_wall_s`.
void ReportQueries(const QueryTally& t, double query_wall_s, Report* report);

/// Layer metrics of the engines, the query processor, the session and
/// the parser, from the tally and the registry phase of the timed run.
void ReportQueryLayers(const QueryTally& t, const RegistryPhase& reg,
                       const dskg::workload::Workload& catalog,
                       const dskg::core::DualStore& store, Report* report);

/// cpu_s, cpu_per_wall, bytes_per_triple and peak RSS.
void ReportResources(double cpu_s, double wall_s, uint64_t storage_bytes,
                     uint64_t triples, Report* report);

// ---- durable stores and the write-then-restart phase -------------------------

/// A fresh, empty directory for one durable store under `opt.out_dir`.
std::string FreshStoreDir(const Options& opt, const std::string& tag);
void RemoveDir(const std::string& dir);

dskg::persist::DurabilityOptions Durability(const std::string& dir);

struct ApplyStats {
  std::vector<double> apply_ms;  ///< ApplyUpdates wall per batch
  double apply_wall_s = 0;       ///< summed
  double update_sim_s = 0;       ///< simulated update cost
  uint64_t ops = 0;
  /// WAL appends (with their fsyncs) inside those calls, summed, from the
  /// registry (traced runs only).
  double wal_append_us = 0;
};

/// Applies batches [first, first+count) of `log` to `store` on the
/// calling thread, timing each.
void ApplyBatches(dskg::core::OnlineStore* store,
                  const dskg::core::UpdateLog& log, uint64_t first,
                  uint64_t count, Report* report, ApplyStats* stats);

struct RestartStats {
  double recover_s = 0;
  uint64_t replayed_batches = 0;
  uint64_t live_bytes = 0;
};

/// Closes `*store`, reopens it from `dir` with `OnlineStore::Recover`,
/// and checks that the recovered store replayed every batch past its
/// snapshot, has the same `StorageBytes()`, and answers the catalog as
/// `live` (the closed store's answers) says. `*store` is the recovered
/// store afterwards (null if recovery failed).
void RestartAndVerify(std::unique_ptr<dskg::core::OnlineStore>* store,
                      const dskg::core::DualStoreConfig& config,
                      const std::string& dir,
                      const dskg::workload::Workload& catalog,
                      const CatalogAnswers& live, Report* report,
                      RestartStats* stats);

/// Reports the apply end-to-end metrics (ingest_ops_per_s, apply_p50_ms,
/// apply_p90_ms) and the apply and WAL layer metrics; `reg` spans the
/// applying. In traced runs the WAL time must fit in the apply wall it is
/// part of.
void ReportApply(const ApplyStats& apply, const RegistryPhase& reg, Report* report);

/// Reports recover_s and the recovery layer metrics; `reg` spans the
/// restart.
void ReportRestart(const RestartStats& restart, const RegistryPhase& reg, Report* report);

// ---- the wire phase ----------------------------------------------------------

/// Serves `w` from `store` over loopback: 2 server workers, a closed loop
/// of 2 clients sending `requests_per_client` executions each. Checks every
/// wire answer against an in-process Session and reports the server layer
/// metrics.
void ServeOverWire(dskg::core::OnlineStore* store,
                   const dskg::workload::Workload& w, uint64_t seed,
                   int requests_per_client, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
