// analytic-watdiv: heavy multi-join analytics with a cold-start tuner.
//
// The WatDiv-C complex templates run in random order over a WatDiv graph.
// One in-process Session thread runs the paper's protocol on a fresh
// DualStore: the workload in 5 batches with DotilTuner::AfterBatch
// between them, for a fixed number of rounds. Round 0 starts cold (an
// empty graph store, so DOTIL probes and migrates); later rounds are
// steady. The timed phase repeats on each of the run's set-ups, each time
// in its own catalog order, and every end-to-end metric is the median of
// the repetitions. Every answer is checked against an RDB-only store over
// the same dataset.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "core/dual_store.h"
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
using dskg::core::Session;
using dskg::workload::Workload;

constexpr uint64_t kWatDivTriples = 550000;  // ~0.65M generated triples
constexpr int kCatalogVersions = 40;         // 3 templates -> 120 queries
constexpr double kRoundsPerSecond = 0.25;    // one protocol round ~5 s
constexpr int kWriteBatches = 50;            // write/restart phase

struct Setup {
  std::unique_ptr<dskg::rdf::Dataset> dataset;
  std::unique_ptr<DualStore> store;
  Workload catalog;
};

DualStoreConfig StoreConfig(const dskg::rdf::Dataset& ds, ThreadPool* pool) {
  DualStoreConfig cfg;
  cfg.graph_capacity_triples = GraphBudget(ds);
  cfg.load_pool = pool;
  return cfg;
}

/// Generates the dataset and catalog, then bulk-loads the store.
SetupSample SetUp(const Options& opt, ThreadPool* pool, Setup* out) {
  out->store.reset();
  out->dataset.reset();
  const double t0 = NowSeconds();
  {
    Span span("workload.generate");
    dskg::workload::WatDivConfig gen;
    gen.seed = kGraphSeed;
    gen.target_triples = ScaledTriples(kWatDivTriples, opt);
    out->dataset = std::make_unique<dskg::rdf::Dataset>(
        dskg::workload::GenerateWatDiv(gen, pool));
    out->catalog = BuildCatalog(*out->dataset, dskg::workload::WatDivComplexTemplates(),
                                kCatalogVersions, SubSeed(opt.seed, 2), "analytic-watdiv");
  }
  const double t1 = NowSeconds();
  {
    Span span("relstore.bulk_load");
    out->store = std::make_unique<DualStore>(out->dataset.get(),
                                             StoreConfig(*out->dataset, pool));
  }
  SetupSample sample;
  sample.total_s = NowSeconds() - t0;
  sample.generate_s = t1 - t0;
  sample.load_s = NowSeconds() - t1;
  return sample;
}

/// What one protocol round produced.
struct RoundResult {
  QueryTally queries;
  std::vector<double> after_batch_ms;
  double tuning_sim_s = 0;
};

/// Expected answer digests, keyed by (template, version).
using Oracle = std::map<std::pair<int, int>, RowDigest>;

/// One round of the paper's protocol on `store`: every catalog query in
/// 5 batches, AfterBatch between batches. Answers are checked against
/// `oracle` unless it is null.
void RunRound(int round, DualStore* store, Session* session,
              dskg::core::DotilTuner* tuner, const Workload& w,
              const Oracle* oracle, Report* report, RoundResult* out) {
  Span round_span("analytic.round", static_cast<uint64_t>(round));
  for (const auto& [begin, end] : w.BatchRanges(kQueryBatches)) {
    std::vector<dskg::sparql::Query> finished;
    for (size_t i = begin; i < end; ++i) {
      const uint64_t qid = static_cast<uint64_t>(round) * w.queries.size() + i + 1;
      bool vanished = false;
      const double t0 = NowSeconds();
      Result<QueryExecution> r = [&] {
        Span span("core.session.execute", qid);
        return ExecuteWorkloadQuery(session, w.queries[i], &vanished);
      }();
      const double wall_ms = (NowSeconds() - t0) * 1e3;
      const double c0 = ThreadCpuSeconds();
      if (!r.ok() || vanished) {
        report->Check(false, "analytic query " + std::to_string(i) + ": " +
                                 (r.ok() ? "binding vanished" : r.status().ToString()));
        continue;
      }
      out->queries.Add(*r, wall_ms, w.queries[i].template_index);
      if (oracle != nullptr) {
        const auto key = std::make_pair(w.queries[i].template_index, w.queries[i].mutation);
        report->Check(DigestTable(r->result, store->dict()) == oracle->at(key),
                      "analytic query " + std::to_string(i) +
                          " rows differ from the RDB-only store's");
      }
      if (r->split.HasComplexSubquery()) finished.push_back(*r->split.complex);
      report->AddCheckCpu(ThreadCpuSeconds() - c0);
    }
    dskg::CostMeter meter;
    const double t0 = NowSeconds();
    dskg::Status s = [&] {
      Span span("core.dotil.after_batch");
      return tuner->AfterBatch(store, finished, &meter);
    }();
    out->after_batch_ms.push_back((NowSeconds() - t0) * 1e3);
    out->tuning_sim_s += meter.sim_micros() * 1e-6;
    report->CheckStatus(s, "AfterBatch");
  }
}

}  // namespace

void RunAnalyticWatdiv(const Options& opt, Report* report) {
  ThreadPool pool(kPoolWorkers);
  const int rounds = std::max(2, static_cast<int>(std::lround(opt.seconds * kRoundsPerSecond)));
  Setup setup;

  // ---- untimed warm-up on a throwaway set-up ---------------------------------
  // The first fifth of the catalog through the whole protocol, so the
  // measured stores start cold but the process does not.
  SetUp(opt, &pool, &setup);
  {
    Workload warmup;
    warmup.queries.assign(setup.catalog.queries.begin(),
                          setup.catalog.queries.begin() +
                              static_cast<std::ptrdiff_t>(setup.catalog.queries.size() / 5));
    Session session(setup.store.get());
    setup.store->SetExecutionPool(&pool);
    dskg::core::DotilTuner tuner;
    tuner.set_probe_pool(&pool);
    RoundResult ignored;
    RunRound(0, setup.store.get(), &session, &tuner, warmup, nullptr, report, &ignored);
  }

  // ---- the RDB-only oracle (untimed) ---------------------------------------
  Oracle oracle;
  {
    DualStoreConfig rdb_cfg;
    rdb_cfg.use_graph = false;
    rdb_cfg.load_pool = &pool;
    DualStore rdb(setup.dataset.get(), rdb_cfg);
    Session session(&rdb);
    for (size_t i = 0; i < setup.catalog.queries.size(); ++i) {
      const auto& wq = setup.catalog.queries[i];
      bool vanished = false;
      auto r = ExecuteWorkloadQuery(&session, wq, &vanished);
      report->CheckStatus(r.status(), "oracle query " + std::to_string(i));
      oracle[{wq.template_index, wq.mutation}] =
          r.ok() && !vanished ? DigestTable(r->result, rdb.dict()) : RowDigest{};
    }
  }

  // ---- set-up, then the timed phase on it, once per repetition ---------------
  SetupTimes times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    times.Add(SetUp(opt, &pool, &setup));
    // Each repetition runs the catalog in its own order.
    Workload w = setup.catalog;
    dskg::Rng(SubSeed(opt.seed, 20 + static_cast<uint64_t>(rep))).Shuffle(&w.queries);
    DualStore* store = setup.store.get();
    store->SetExecutionPool(&pool);
    dskg::core::DotilTuner tuner;
    tuner.set_probe_pool(&pool);
    RoundResult all;
    RegistryPhase reg;
    Session session(store);
    const double check0 = report->check_cpu_s();
    const double cpu0 = ProcessCpuSeconds();
    const double wall0 = NowSeconds();
    {
      Span root("analytic.timed", static_cast<uint64_t>(rep));
      for (int round = 0; round < rounds; ++round) {
        RoundResult rr;
        RunRound(round, store, &session, &tuner, w, &oracle, report, &rr);
        all.queries.Merge(rr.queries);
        all.after_batch_ms.insert(all.after_batch_ms.end(), rr.after_batch_ms.begin(),
                                  rr.after_batch_ms.end());
        all.tuning_sim_s += rr.tuning_sim_s;
      }
    }
    const double wall_s = NowSeconds() - wall0;
    const double cpu_s = ProcessCpuSeconds() - cpu0 - (report->check_cpu_s() - check0);

    ReportQueries(all.queries, Sum(all.queries.latency_ms) * 1e-3, report);
    report->E2e("sim_tti_s", all.queries.sim_s, "s");
    report->E2e("tuning_wall_s", Sum(all.after_batch_ms) * 1e-3, "s");
    report->E2e("sim_tuning_s", all.tuning_sim_s, "s");
    ReportResources(cpu_s, wall_s,
                    setup.dataset->StorageBytes() + store->table().IndexBytes(),
                    setup.dataset->num_triples(), report);
    ReportQueryLayers(all.queries, reg, w, *store, report);
    report->Layer("core.dotil.after_batch_ms", Sum(all.after_batch_ms), "ms");
    report->Layer("core.dotil.migrations", reg.Value("dotil.migrations"), "count");
    report->Layer("core.dotil.evictions", reg.Value("dotil.evictions"), "count");
    report->Note("replans.rep" + std::to_string(rep),
                 static_cast<double>(session.stats().replans));
  }
  times.Publish(report);
  report->Note("rounds", rounds);

  // ---- write then restart (after the timed phase) ---------------------------
  // Applies a generated update stream to a durable copy of the graph,
  // then restarts it from disk and checks what comes back.
  setup.store.reset();
  const dskg::core::UpdateLog log = [&] {
    dskg::workload::UpdateStreamConfig ucfg;
    ucfg.seed = SubSeed(opt.seed, 3);
    ucfg.num_batches = kWriteBatches;
    ucfg.ops_per_batch = kOpsPerBatch;
    return dskg::workload::GenerateUpdateStream(*setup.dataset, ucfg);
  }();
  const std::string dir = FreshStoreDir(opt, "analytic");
  DualStoreConfig cfg = StoreConfig(*setup.dataset, &pool);
  auto durable = std::make_unique<OnlineStore>(*setup.dataset, cfg, Durability(dir));
  // Four versions of each template are enough to compare the live and
  // the recovered store (the full catalog's answers are checked against
  // the RDB-only store above).
  Workload restart_catalog;
  for (const auto& wq : setup.catalog.queries) {
    if (wq.mutation < 4) restart_catalog.queries.push_back(wq);
  }
  {
    RegistryPhase reg;
    ApplyStats apply;
    ApplyBatches(durable.get(), log, 0, log.size(), report, &apply);
    ReportApply(apply, reg, report);
    const CatalogAnswers live = AnswerCatalog(durable.get(), restart_catalog, report, "live");
    RestartStats restart;
    RestartAndVerify(&durable, cfg, dir, restart_catalog, live, report, &restart);
    ReportRestart(restart, reg, report);
  }
  durable.reset();
  RemoveDir(dir);
}

}  // namespace perfbench
