// ingest-yago: writes beside reads on the YAGO graph.
//
// A durable OnlineStore with 2 shards syncs its WAL after every batch.
// One injector (this thread) applies a generated update stream of fixed
// size, 1000 ops per batch, in windows; one reader thread runs the
// catalog through a Session on pinned snapshots, one pass per window.
// Between windows the store retunes in TuneExclusive; after the last
// retune it checkpoints. The timed phase repeats on each of the run's
// set-ups, each time with its own update stream and reader order, and
// every end-to-end metric is the median of the repetitions.
// After the last repetition the store is closed and reopened with
// OnlineStore::Recover (the checkpoint plus the last window's WAL); the
// recovered store must have the same StorageBytes(), hold the same
// triples and give the same catalog answers as the live one did. Last,
// the recovered store serves the catalog over loopback (the wire phase,
// for the server layer metrics).

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "workload/generators.h"
#include "workload/templates.h"
#include "workload/update_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dskg::Result;
using dskg::ThreadPool;
using dskg::core::DualStore;
using dskg::core::DualStoreConfig;
using dskg::core::OnlineStore;
using dskg::core::QueryExecution;
using dskg::workload::Workload;

constexpr uint64_t kYagoTriples = 560000;   // ~0.6M generated triples
constexpr int kShards = 2;
constexpr int kBatchesPerSecond = 5;        // per repetition, 1000 ops each
constexpr int kWindows = 5;
constexpr int kCatalogVersions = 100;       // 4 templates -> 400 queries
constexpr int kWireRequestsPerClient = 400;

struct Setup {
  std::unique_ptr<dskg::rdf::Dataset> dataset;
  std::unique_ptr<OnlineStore> store;
  Workload catalog;
  dskg::core::UpdateLog log;
  std::string dir;
  double tune_sim_s = 0;
};

DualStoreConfig StoreConfig(const dskg::rdf::Dataset& ds, ThreadPool* pool) {
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = GraphBudget(ds);
  cfg.num_shards = kShards;
  cfg.load_pool = pool;
  return cfg;
}

/// Set-up for repetition `rep`: the graph, the catalog in this
/// repetition's order, its update stream, the durable store and its
/// set-up tuning.
SetupSample SetUp(const Options& opt, int rep, int batches, ThreadPool* pool,
                  Report* report, Setup* out) {
  out->store.reset();
  if (!out->dir.empty()) RemoveDir(out->dir);
  out->dataset.reset();
  out->dir = FreshStoreDir(opt, "ingest-" + std::to_string(rep));
  const uint64_t r = static_cast<uint64_t>(rep);
  SetupSample sample;
  const double t0 = NowSeconds();
  {
    Span span("workload.generate");
    dskg::workload::YagoConfig gen;
    gen.seed = kGraphSeed;
    gen.target_triples = ScaledTriples(kYagoTriples, opt);
    out->dataset = std::make_unique<dskg::rdf::Dataset>(
        dskg::workload::GenerateYago(gen, pool));
    out->catalog = BuildCatalog(*out->dataset, dskg::workload::YagoTemplates(),
                                kCatalogVersions, SubSeed(opt.seed, 20 + r), "ingest-yago");
    dskg::workload::UpdateStreamConfig ucfg;
    ucfg.seed = SubSeed(opt.seed, 30 + r);
    ucfg.num_batches = batches;
    ucfg.ops_per_batch = kOpsPerBatch;
    out->log = dskg::workload::GenerateUpdateStream(*out->dataset, ucfg);
  }
  const double t1 = NowSeconds();
  {
    RegistryPhase reg;
    Span span("relstore.bulk_load");
    out->store = std::make_unique<OnlineStore>(
        *out->dataset, StoreConfig(*out->dataset, pool), Durability(out->dir));
    sample.snapshot_save_s = reg.Value("persist.snapshot.save_us.sum") * 1e-6;
  }
  const double t2 = NowSeconds();
  {
    dskg::core::DotilTuner tuner;
    tuner.set_probe_pool(pool);
    out->tune_sim_s = 0;
    report->CheckStatus(TuneOverCatalog(out->store.get(), &tuner, out->catalog,
                                        &out->tune_sim_s),
                        "set-up tuning");
  }
  const double t3 = NowSeconds();
  sample.total_s = t3 - t0;
  sample.generate_s = t1 - t0;
  sample.load_s = t2 - t1;
  sample.tune_s = t3 - t2;
  return sample;
}

/// The reader: one catalog pass through `session` (all templates but
/// `skip_template`), each read timed. Reads that finish while `injecting`
/// is still set count as overlapping the applier.
void ReadPass(int window, dskg::core::Session* session, const Workload& w,
              int skip_template, const std::atomic<bool>* injecting,
              Report* report, QueryTally* tally, uint64_t* overlapping,
              uint64_t* vanished_reads) {
  Span root("ingest.reader", static_cast<uint64_t>(window));
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (w.queries[i].template_index == skip_template) continue;
    const uint64_t qid = static_cast<uint64_t>(window) * w.queries.size() + i + 1;
    bool vanished = false;
    const double t0 = NowSeconds();
    Result<QueryExecution> r = [&] {
      Span span("core.session.execute", qid);
      return ExecuteWorkloadQuery(session, w.queries[i], &vanished);
    }();
    const double wall_ms = (NowSeconds() - t0) * 1e3;
    report->CheckStatus(r.status(), "read under ingest, catalog query " + std::to_string(i));
    if (!r.ok()) continue;
    if (vanished) {
      ++*vanished_reads;  // the bound term was deleted: nothing can match
      continue;
    }
    tally->Add(*r, wall_ms, w.queries[i].template_index);
    if (injecting->load(std::memory_order_acquire)) ++*overlapping;
  }
}

}  // namespace

void RunIngestYago(const Options& opt, Report* report) {
  ThreadPool pool(kPoolWorkers);
  const int per_window = std::max(1, opt.seconds * kBatchesPerSecond / kWindows);
  const int batches = per_window * kWindows;

  // The reader leaves out this template: its reads take about 60 us, under
  // the 0.1 ms below which a latency median is mostly timer and scheduler
  // noise. It still feeds set-up tuning, the retunes, the recovery check
  // and the wire phase.
  int skip_template = -1;
  const auto templates = dskg::workload::YagoTemplates();
  for (size_t t = 0; t < templates.size(); ++t) {
    if (templates[t].name == "yago-married-samecity") skip_template = static_cast<int>(t);
  }

  SetupTimes times;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const SetupSample sample = SetUp(opt, rep, batches, &pool, report, &setup);
    times.Add(sample);
    OnlineStore* store = setup.store.get();
    const Workload& w = setup.catalog;
    // Untimed warm-up: one catalog pass, which reads but changes nothing.
    if (rep == 0) AnswerCatalog(store, w, report, "warm-up");
    const std::vector<dskg::sparql::Query> complex =
        ComplexSubqueries(w, 0, w.queries.size());

    // ---- timed phase: windows of writes beside reads --------------------------
    dskg::core::DotilTuner tuner;
    tuner.set_probe_pool(&pool);
    QueryTally reads;
    ApplyStats apply;
    uint64_t overlapping = 0, vanished_reads = 0;
    int retunes = 0;
    std::vector<double> retune_ms, after_batch_ms;
    double retune_sim_s = 0;
    RegistryPhase reg;
    const double cpu0 = ProcessCpuSeconds();
    const double wall0 = NowSeconds();
    auto session = std::make_unique<dskg::core::Session>(store);
    for (int win = 0; win < kWindows; ++win) {
      std::atomic<bool> injecting{true};
      std::thread reader([&, win] {
        ReadPass(win, session.get(), w, skip_template, &injecting, report, &reads, &overlapping,
                 &vanished_reads);
      });
      {
        Span root("ingest.injector", static_cast<uint64_t>(win));
        ApplyBatches(store, setup.log, static_cast<uint64_t>(win) * per_window, per_window,
                     report, &apply);
        injecting.store(false, std::memory_order_release);
      }
      reader.join();
      if (win + 1 == kWindows) break;

      // Offline window between two windows: retune. Every window, not
      // only when partitions drifted past a threshold: with a 25%
      // threshold the number of retunes, and with it sim_tuning_s,
      // changed from one update-stream seed to the next.
      dskg::CostMeter meter;
      double ab_ms = 0;
      const double t0 = NowSeconds();
      const dskg::Status s = [&] {
        Span span("core.online_store.tune_exclusive", static_cast<uint64_t>(win));
        return store->TuneExclusive([&](DualStore* d) {
          Span inner("core.dotil.after_batch");
          const double a0 = NowSeconds();
          dskg::Status st = tuner.AfterBatch(d, complex, &meter);
          ab_ms = (NowSeconds() - a0) * 1e3;
          return st;
        });
      }();
      retune_ms.push_back((NowSeconds() - t0) * 1e3);
      after_batch_ms.push_back(ab_ms);
      retune_sim_s += meter.sim_micros() * 1e-6;
      report->CheckStatus(s, "retune");
      ++retunes;
      // A retune publishes a snapshot that WAL replay would not, so the
      // last one is followed by a checkpoint: recovery then replays only
      // logged batches on top of the tuned state.
      if (win + 2 == kWindows) {
        Span span("persist.checkpoint", static_cast<uint64_t>(win));
        report->CheckStatus(store->SaveSnapshot(), "checkpoint");
      }
    }
    const double wall_s = NowSeconds() - wall0;
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    session.reset();  // before the store can close

    ReportQueries(reads, Sum(reads.latency_ms) * 1e-3, report);
    report->E2e("tuning_wall_s", sample.tune_s + Sum(retune_ms) * 1e-3, "s");
    report->E2e("sim_tuning_s", setup.tune_sim_s + retune_sim_s, "s");
    ReportResources(cpu_s, wall_s, store->StorageBytes(),
                    store->active().dataset().num_triples(), report);
    ReportApply(apply, reg, report);
    ReportQueryLayers(reads, reg, w, store->active(), report);
    report->Layer("core.dotil.after_batch_ms", Sum(after_batch_ms), "ms");
    report->Layer("core.dotil.migrations", reg.Value("dotil.migrations"), "count");
    report->Layer("core.dotil.evictions", reg.Value("dotil.evictions"), "count");
    report->Layer("core.online_store.tune_exclusive_ms", Sum(retune_ms), "ms");
    report->Layer("core.online_store.retunes", retunes, "count");
    report->Layer("core.online_store.reads_per_batch",
                  static_cast<double>(overlapping) / batches, "count");
    report->Note("reads.rep" + std::to_string(rep), static_cast<double>(reads.latency_ms.size()));
    report->Note("vanished_reads.rep" + std::to_string(rep),
                 static_cast<double>(vanished_reads));

    // The catalog on the final state: simulated TTI of the repetition.
    const CatalogAnswers live = AnswerCatalog(store, w, report, "live");
    report->E2e("sim_tti_s", live.sim_s, "s");

    // ---- restart after the last repetition: close, recover, compare ---------
    if (rep + 1 == kSetupReps) {
      RestartStats restart;
      RestartAndVerify(&setup.store, StoreConfig(*setup.dataset, &pool), setup.dir, w, live,
                       report, &restart);
      ReportRestart(restart, reg, report);
    }
  }
  times.Publish(report);
  report->Note("batches", batches);

  // ---- the wire phase, on the recovered store -----------------------------------
  if (setup.store != nullptr) {
    ServeOverWire(setup.store.get(), setup.catalog, opt.seed, kWireRequestsPerClient, report);
  }
  setup.store.reset();
  RemoveDir(setup.dir);
}

}  // namespace perfbench
