#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/rng.h"
#include "core/identifier.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace perfbench {

using dskg::Result;
using dskg::Status;
using dskg::core::DualStore;
using dskg::core::OnlineStore;
using dskg::core::QueryExecution;
using dskg::core::Session;
using dskg::workload::Workload;
using dskg::workload::WorkloadQuery;

uint64_t ScaledTriples(uint64_t base, const Options& opt) {
  return std::max<uint64_t>(20000, static_cast<uint64_t>(base * opt.scale));
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

// ---- catalog ---------------------------------------------------------------

Workload BuildCatalog(const dskg::rdf::Dataset& ds,
                      const std::vector<dskg::workload::QueryTemplate>& templates,
                      int versions, uint64_t order_seed, const std::string& name) {
  dskg::workload::WorkloadOptions o;
  o.mutations_per_template = versions - 1;
  o.ordered = false;
  o.seed = kCatalogSeed;
  Workload w = dskg::workload::WorkloadBuilder(&ds).Build(name, templates, o).ValueOrDie();
  dskg::Rng(order_seed).Shuffle(&w.queries);
  return w;
}

Result<QueryExecution> ExecuteWorkloadQuery(Session* session,
                                            const WorkloadQuery& wq,
                                            bool* vanished) {
  *vanished = false;
  Result<dskg::core::PreparedQuery> prepared = session->Prepare(wq.prepared_text);
  if (!prepared.ok()) return prepared.status();
  for (const auto& [param, term] : wq.bindings) {
    const Status s = prepared->Bind(param, term);
    if (s.IsNotFound()) {
      *vanished = true;
      return QueryExecution{};
    }
    if (!s.ok()) return s;
  }
  Result<QueryExecution> r = prepared->ExecuteAll();
  if (!r.ok() && r.status().IsNotFound()) {
    *vanished = true;  // the term vanished between Bind and the pin
    return QueryExecution{};
  }
  return r;
}

std::vector<dskg::sparql::Query> ComplexSubqueries(const Workload& w,
                                                   size_t begin, size_t end) {
  std::vector<dskg::sparql::Query> out;
  for (size_t i = begin; i < end; ++i) {
    auto split = dskg::core::ComplexSubqueryIdentifier::Identify(w.queries[i].query);
    if (split.HasComplexSubquery()) out.push_back(*split.complex);
  }
  return out;
}

Status TuneOverCatalog(OnlineStore* store, dskg::core::DotilTuner* tuner,
                       const Workload& w, double* sim_s) {
  for (const auto& [begin, end] : w.BatchRanges(kQueryBatches)) {
    const auto finished = ComplexSubqueries(w, begin, end);
    dskg::CostMeter meter;
    Span span("core.online_store.tune_exclusive");
    DSKG_RETURN_NOT_OK(store->TuneExclusive([&](DualStore* s) {
      Span inner("core.dotil.after_batch");
      return tuner->AfterBatch(s, finished, &meter);
    }));
    *sim_s += meter.sim_micros() * 1e-6;
  }
  return Status::OK();
}

CatalogAnswers AnswerCatalog(OnlineStore* store, const Workload& w,
                             Report* report, const char* what) {
  CatalogAnswers out;
  Session session(store);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    bool vanished = false;
    Result<QueryExecution> r = ExecuteWorkloadQuery(&session, w.queries[i], &vanished);
    report->CheckStatus(r.status(), std::string(what) + " catalog query " +
                                        std::to_string(i));
    if (!r.ok() || vanished) {
      out.digests.push_back(RowDigest{});
      continue;
    }
    auto guard = store->Read();
    out.digests.push_back(DigestTable(r->result, guard.store().dict()));
    out.sim_s += r->total_micros() * 1e-6;
  }
  return out;
}

// ---- durable stores --------------------------------------------------------

std::string FreshStoreDir(const Options& opt, const std::string& tag) {
  const std::string dir = opt.out_dir + "/stores-" + std::to_string(getpid()) + "/" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // Drop the per-process parent too once it is empty.
  std::filesystem::remove(std::filesystem::path(dir).parent_path(), ec);
}

dskg::persist::DurabilityOptions Durability(const std::string& dir) {
  dskg::persist::DurabilityOptions d;
  d.dir = dir;
  d.sync_policy = dskg::persist::SyncPolicy::kEveryBatch;
  return d;
}

void ApplyBatches(OnlineStore* store, const dskg::core::UpdateLog& log,
                  uint64_t first, uint64_t count, Report* report,
                  ApplyStats* stats) {
  const char* kWal = "persist.wal.append_us.sum";
  const double wal0 = Traced() ? RegistryValue(kWal) : 0;
  for (uint64_t i = first; i < first + count; ++i) {
    const dskg::core::UpdateBatch& batch = log.at(i);
    dskg::CostMeter meter;
    const double t0 = NowSeconds();
    Result<dskg::core::UpdateResult> r = [&] {
      Span span("core.online_store.apply", i + 1);
      return store->ApplyUpdates(batch, &meter);
    }();
    const double dt = NowSeconds() - t0;
    report->CheckStatus(r.status(), "apply batch " + std::to_string(i));
    stats->apply_ms.push_back(dt * 1e3);
    stats->apply_wall_s += dt;
    stats->update_sim_s += meter.sim_micros() * 1e-6;
    stats->ops += batch.size();
  }
  if (Traced()) stats->wal_append_us += RegistryValue(kWal) - wal0;
}

namespace {

/// Every live triple of `store`, by term text.
RowDigest TriplesOf(const OnlineStore& store) {
  const dskg::rdf::Dataset& ds = store.active().dataset();
  const dskg::rdf::Dictionary& dict = ds.dict();
  RowDigest all;
  std::vector<std::vector<std::string>> row(1, std::vector<std::string>(3));
  for (const dskg::rdf::Triple& t : ds.triples()) {
    row[0][0] = dict.TermOf(t.subject);
    row[0][1] = dict.TermOf(t.predicate);
    row[0][2] = dict.TermOf(t.object);
    const RowDigest one = DigestWireRows(row);
    all.rows += one.rows;
    all.sum += one.sum;
  }
  return all;
}

}  // namespace

void RestartAndVerify(std::unique_ptr<OnlineStore>* store,
                      const dskg::core::DualStoreConfig& config,
                      const std::string& dir, const Workload& catalog,
                      const CatalogAnswers& live, Report* report,
                      RestartStats* stats) {
  stats->live_bytes = (*store)->StorageBytes();
  const uint64_t next_batch = (*store)->next_batch_id();
  const RowDigest live_triples = TriplesOf(**store);
  store->reset();  // closes the WAL

  OnlineStore::RecoveryReport rep;
  const double t0 = NowSeconds();
  Result<std::unique_ptr<OnlineStore>> recovered = [&] {
    Span span("persist.recover");
    return OnlineStore::Recover(config, Durability(dir), &rep);
  }();
  stats->recover_s = NowSeconds() - t0;
  report->CheckStatus(recovered.status(), "recover");
  if (!recovered.ok()) return;
  *store = std::move(recovered).ValueOrDie();
  stats->replayed_batches = rep.replayed_batches;
  report->Check(rep.replayed_batches > 0 &&
                    rep.snapshot_watermark + rep.replayed_batches == next_batch,
                "recovery replayed " + std::to_string(rep.replayed_batches) +
                    " batches past watermark " + std::to_string(rep.snapshot_watermark) +
                    ", the live store had applied up to " + std::to_string(next_batch));
  const uint64_t back_bytes = (*store)->StorageBytes();
  report->Check(back_bytes == stats->live_bytes,
                "recovered StorageBytes() " + std::to_string(back_bytes) +
                    " differs from the live store's " + std::to_string(stats->live_bytes));
  report->Check(TriplesOf(**store) == live_triples,
                "recovered triples differ from the live store's");
  const CatalogAnswers back =
      AnswerCatalog(store->get(), catalog, report, "recovered");
  for (size_t i = 0; i < live.digests.size(); ++i) {
    report->Check(back.digests[i] == live.digests[i],
                  "recovered answer of catalog query " + std::to_string(i) +
                      " differs from the live store's");
  }
}

void ReportApply(const ApplyStats& apply, const RegistryPhase& reg, Report* report) {
  report->E2e("ingest_ops_per_s",
              apply.apply_wall_s > 0 ? apply.ops / apply.apply_wall_s : 0, "1/s");
  report->E2e("apply_p50_ms", Quantile(apply.apply_ms, 0.5), "ms");
  report->E2e("apply_p90_ms", Quantile(apply.apply_ms, 0.9), "ms");

  // The WAL append histogram includes the fsync it triggers; split them.
  const double batches = static_cast<double>(std::max<size_t>(1, apply.apply_ms.size()));
  const double append_us = reg.Mean("persist.wal.append_us");
  const double fsync_us = reg.Mean("persist.fsync_us");
  const double apply_self_ms = apply.apply_wall_s * 1e3 - apply.wal_append_us * 1e-3;
  report->Layer("core.online_store.apply_self_ms", apply_self_ms / batches, "ms");
  if (Traced()) {
    report->CheckLayerSplit("apply", apply.apply_wall_s * 1e3,
                            {{"persist.wal.append", apply.wal_append_us * 1e-3}});
  }
  report->Layer("core.online_store.update_sim_s", apply.update_sim_s, "s");
  report->Layer("persist.wal_append_us", append_us - fsync_us, "us");
  report->Layer("persist.fsync_us", fsync_us, "us");
  report->Layer("persist.wal_bytes_per_op",
                apply.ops > 0 ? reg.Value("persist.wal.bytes") / apply.ops : 0, "B");
}

void ReportRestart(const RestartStats& restart, const RegistryPhase& reg, Report* report) {
  report->E2e("recover_s", restart.recover_s, "s");
  report->Note("live_bytes", static_cast<double>(restart.live_bytes));
  report->Layer("persist.snapshot_load_s",
                reg.Value("persist.snapshot.load_us.sum") * 1e-6, "s");
  report->Layer("persist.replayed_batches",
                static_cast<double>(restart.replayed_batches), "count");
}

// ---- query tallies and shared reporting --------------------------------------

void QueryTally::Add(const QueryExecution& e, double wall_ms, int template_index) {
  latency_ms.push_back(wall_ms);
  template_of.push_back(template_index);
  rel_sim_s += e.rel_micros * 1e-6;
  graph_sim_s += e.graph_micros * 1e-6;
  migrate_sim_s += e.migrate_micros * 1e-6;
  sim_s += (e.rel_micros + e.graph_micros + e.migrate_micros) * 1e-6;
  ++by_route[static_cast<int>(e.route)];
}

void QueryTally::Merge(const QueryTally& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  template_of.insert(template_of.end(), o.template_of.begin(), o.template_of.end());
  sim_s += o.sim_s;
  rel_sim_s += o.rel_sim_s;
  graph_sim_s += o.graph_sim_s;
  migrate_sim_s += o.migrate_sim_s;
  for (int i = 0; i < 4; ++i) by_route[i] += o.by_route[i];
}

void ReportQueries(const QueryTally& t, double query_wall_s, Report* report) {
  report->E2e("query_p50_ms", Quantile(t.latency_ms, 0.50), "ms");
  report->E2e("query_p90_ms", Quantile(t.latency_ms, 0.90), "ms");
  report->E2e("query_p99_ms", Quantile(t.latency_ms, 0.99), "ms");
  report->E2e("tti_wall_s", Sum(t.latency_ms) * 1e-3, "s");
  report->E2e("qps", query_wall_s > 0 ? t.latency_ms.size() / query_wall_s : 0, "1/s");
  report->Note("query_samples", static_cast<double>(t.latency_ms.size()));
  // Each template's median, so a shift of the overall median between
  // templates can be told apart from a change within one.
  std::map<int, std::vector<double>> per_template;
  for (size_t i = 0; i < t.latency_ms.size(); ++i) {
    per_template[t.template_of[i]].push_back(t.latency_ms[i]);
  }
  for (const auto& [k, v] : per_template) {
    report->Note("template" + std::to_string(k) + "_p50_ms", Median(v));
    report->Note("template" + std::to_string(k) + "_share",
                 static_cast<double>(v.size()) / t.latency_ms.size());
  }
}

void ReportQueryLayers(const QueryTally& t, const RegistryPhase& reg,
                       const Workload& catalog, const DualStore& store,
                       Report* report) {
  report->Layer("relstore.exec_ms", reg.Value("query.wall_us.relational.sum") * 1e-3, "ms");
  report->Layer("relstore.exec_p50_ms", reg.Value("query.wall_us.relational.p50") * 1e-3, "ms");
  report->Layer("relstore.sim_s", t.rel_sim_s, "s");
  report->Layer("graphstore.exec_ms", reg.Value("query.wall_us.graph.sum") * 1e-3, "ms");
  report->Layer("graphstore.exec_p50_ms", reg.Value("query.wall_us.graph.p50") * 1e-3, "ms");
  report->Layer("graphstore.sim_s", t.graph_sim_s, "s");
  report->Layer("graphstore.resident_triples",
                static_cast<double>(store.graph().used_triples()), "count");

  report->Layer("core.query_processor.route_relational", static_cast<double>(t.by_route[0]), "count");
  report->Layer("core.query_processor.route_graph", static_cast<double>(t.by_route[1]), "count");
  report->Layer("core.query_processor.route_dual", static_cast<double>(t.by_route[2]), "count");
  report->Layer("core.query_processor.dual_exec_ms", reg.Value("query.wall_us.dual.sum") * 1e-3, "ms");
  report->Layer("core.query_processor.migrate_sim_s", t.migrate_sim_s, "s");

  // Session self time: its execute span minus the processor's execution.
  double engine_us = 0;
  for (int i = 0; i < 4; ++i) {
    engine_us += reg.Value(std::string("query.wall_us.") +
                           dskg::core::RouteName(static_cast<dskg::core::Route>(i)) + ".sum");
  }
  const double executions = reg.Value("session.execute_us.count");
  const double session_self_us = reg.Value("session.execute_us.sum") - engine_us;
  report->Layer("core.session.execute_self_us",
                executions > 0 ? session_self_us / executions : 0, "us");
  // The engines' and the session's own time, both timed inside the
  // library, must fit in the benchmark's wall time of the same queries.
  if (Traced()) {
    report->CheckLayerSplit("queries", Sum(t.latency_ms),
                            {{"engines", engine_us * 1e-3},
                             {"core.session.self", session_self_us * 1e-3}});
  }
  const double hits = reg.Value("session.cache_hits");
  const double prepares = reg.Value("session.prepares");
  report->Layer("core.session.plan_hit_ratio",
                hits + prepares > 0 ? hits / (hits + prepares) : 0, "ratio");
  report->Layer("core.session.replans", reg.Value("session.replans"), "count");
  report->Layer("sparql.parses", prepares + reg.Value("plan_cache.shared.parses"), "count");

  // Parse and plan cost of this workload's catalog on the final state,
  // timed around the public entry points (each text once per repeat).
  std::vector<double> parse_us, prepare_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const WorkloadQuery& wq : catalog.queries) {
      double t0 = NowSeconds();
      auto parsed = dskg::sparql::Parser::Parse(wq.prepared_text);
      parse_us.push_back((NowSeconds() - t0) * 1e6);
      if (!parsed.ok()) continue;
      t0 = NowSeconds();
      auto plan = store.Prepare(*parsed);
      prepare_us.push_back((NowSeconds() - t0) * 1e6);
    }
  }
  report->Layer("sparql.parse_us", Median(parse_us), "us");
  report->Layer("core.query_processor.prepare_us", Median(prepare_us), "us");
}

void ReportResources(double cpu_s, double wall_s, uint64_t storage_bytes,
                     uint64_t triples, Report* report) {
  report->E2e("cpu_s", cpu_s, "s");
  report->E2e("peak_rss_mb", PeakRssMiB(), "MiB");
  report->E2e("bytes_per_triple",
              triples > 0 ? static_cast<double>(storage_bytes) / triples : 0, "B");
  report->Layer("common.cpu_per_wall", wall_s > 0 ? cpu_s / wall_s : 0, "ratio");
}

// ---- set-up ----------------------------------------------------------------

void SetupTimes::Publish(Report* report) const {
  std::vector<double> total, generate, load, tune, save;
  for (const SetupSample& s : samples) {
    total.push_back(s.total_s);
    generate.push_back(s.generate_s);
    load.push_back(s.load_s);
    tune.push_back(s.tune_s);
    save.push_back(s.snapshot_save_s);
  }
  report->E2e("setup_s", Median(total), "s");
  report->Layer("workload.generate_s", Median(generate), "s");
  report->Layer("relstore.bulk_load_s", Median(load), "s");
  report->Layer("core.dotil.setup_tune_s", Median(tune), "s");
  report->Layer("persist.snapshot_save_s", Median(save), "s");
}

}  // namespace perfbench
