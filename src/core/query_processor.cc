#include "core/query_processor.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/telemetry.h"

namespace dskg::core {

using graphstore::TraversalMatcher;
using rdf::TermId;
using relstore::Executor;
using sparql::BindingTable;
using sparql::Query;

namespace {

// Route/engine metrics, resolved once against the global registry.
// Indexed by `static_cast<int>(Route)`.
struct QpMetrics {
  telemetry::Counter* route_count[4];
  telemetry::Histogram* wall_us[4];
  telemetry::Histogram* sim_us[4];
  telemetry::Histogram* rel_exec_wall_us;
  telemetry::Histogram* rel_exec_sim_us;
  telemetry::Histogram* graph_match_wall_us;
  telemetry::Histogram* graph_match_sim_us;
};

const QpMetrics& Qm() {
  static const QpMetrics m = [] {
    auto& reg = telemetry::MetricsRegistry::Global();
    QpMetrics q;
    const Route routes[4] = {Route::kRelationalOnly, Route::kGraphOnly,
                             Route::kDualStore, Route::kViewAssisted};
    for (Route r : routes) {
      const std::string n = RouteName(r);
      const int i = static_cast<int>(r);
      q.route_count[i] = reg.counter("query.route." + n);
      q.wall_us[i] = reg.histogram("query.wall_us." + n);
      q.sim_us[i] = reg.histogram("query.sim_us." + n);
    }
    q.rel_exec_wall_us = reg.histogram("rel.exec_wall_us");
    q.rel_exec_sim_us = reg.histogram("rel.exec_sim_us");
    q.graph_match_wall_us = reg.histogram("graph.match_wall_us");
    q.graph_match_sim_us = reg.histogram("graph.match_sim_us");
    return q;
  }();
  return m;
}

}  // namespace

const char* RouteName(Route route) {
  switch (route) {
    case Route::kRelationalOnly: return "relational";
    case Route::kGraphOnly: return "graph";
    case Route::kDualStore: return "dual";
    case Route::kViewAssisted: return "view";
  }
  return "unknown";
}

bool QueryProcessor::GraphCovers(const Query& q) const {
  for (const sparql::TriplePattern& p : q.patterns) {
    if (p.predicate.is_variable) return false;
    const rdf::TermId id = dict_->Lookup(p.predicate.text);
    if (id == rdf::kInvalidTermId) return false;
    if (!graph_->HasPredicate(id)) return false;
  }
  return true;
}

namespace {

/// Index of `name` in `params` (the plan-level parameter order). The
/// parser guarantees every artifact parameter is a query parameter.
size_t PlanParamIndex(const std::vector<std::string>& params,
                      const std::string& name) {
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i] == name) return i;
  }
  return params.size();  // unreachable for well-formed plans
}

/// Re-indexes a compiled artifact's `$param` sites (numbered in the
/// artifact's own first-appearance order) onto the plan-level order, so
/// every execution hands the plan's value array to the engines as-is.
void Rebase(const std::vector<std::string>& params,
            Executor::CompiledQuery* cq) {
  for (Executor::CompiledQuery::ParamSite& site : cq->param_sites) {
    site.param = static_cast<uint32_t>(
        PlanParamIndex(params, cq->param_names[site.param]));
  }
  cq->param_names = params;
}

void Rebase(const std::vector<std::string>& params,
            TraversalMatcher::Plan* gp) {
  for (TraversalMatcher::EncPat& p : gp->patterns) {
    for (TraversalMatcher::End* e : {&p.subject, &p.object}) {
      if (e->param < 0) continue;
      e->param = static_cast<int>(
          PlanParamIndex(params, gp->param_names[e->param]));
    }
  }
  gp->param_names = params;
}

/// Records the `$param` sites of `q`'s patterns into `sites`.
void RecordAstSites(const Query& q, uint8_t which,
                    const std::vector<std::string>& params,
                    std::vector<PreparedPlan::AstParamSite>* sites) {
  for (size_t i = 0; i < q.patterns.size(); ++i) {
    const sparql::PatternTerm* ends[2] = {&q.patterns[i].subject,
                                          &q.patterns[i].object};
    const uint8_t pos[2] = {0, 2};
    for (int e = 0; e < 2; ++e) {
      if (!ends[e]->is_param) continue;
      sites->push_back(
          {which, static_cast<uint32_t>(i), pos[e],
           static_cast<uint32_t>(PlanParamIndex(params, ends[e]->text))});
    }
  }
}

}  // namespace

Result<BindingTable> QueryProcessor::RunRelational(
    const Executor::CompiledQuery& cq, const TermId* param_values,
    const BindingTable* seed, CostMeter* meter) const {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double wall0 = telem ? reg.NowMicros() : 0;
  const double sim0 = telem ? meter->sim_micros() : 0;
  DSKG_ASSIGN_OR_RETURN(BindingTable joined,
                        executor_->Execute(cq, param_values, seed, meter));
  if (telem) {
    Qm().rel_exec_wall_us->Record(reg.NowMicros() - wall0);
    Qm().rel_exec_sim_us->Record(meter->sim_micros() - sim0);
  }
  return joined;
}

IdentifiedQuery QueryProcessor::BindSplit(const PreparedPlan& plan,
                                          const TermId* param_values) const {
  IdentifiedQuery split = plan.split;
  for (const PreparedPlan::AstParamSite& site : plan.ast_param_sites) {
    if (param_values == nullptr) break;
    const TermId v = param_values[site.param];
    if (v == rdf::kInvalidTermId) continue;  // caught by the engines
    Query* q = site.which == 0   ? &split.query
               : site.which == 1 ? &*split.complex
                                 : &split.remainder;
    sparql::PatternTerm& term = site.pos == 0
                                    ? q->patterns[site.pattern].subject
                                    : q->patterns[site.pattern].object;
    term = sparql::PatternTerm::Const(std::string(dict_->TermOf(v)));
  }
  return split;
}

Result<PreparedPlan> QueryProcessor::Prepare(const Query& query) const {
  PreparedPlan plan;
  plan.params = query.Parameters();
  plan.split = ComplexSubqueryIdentifier::Identify(query);
  plan.out_vars =
      query.select_vars.empty() ? query.AllVariables() : query.select_vars;
  if (!plan.params.empty()) {
    RecordAstSites(plan.split.query, 0, plan.params, &plan.ast_param_sites);
    if (plan.split.HasComplexSubquery()) {
      RecordAstSites(*plan.split.complex, 1, plan.params,
                     &plan.ast_param_sites);
    }
    RecordAstSites(plan.split.remainder, 2, plan.params,
                   &plan.ast_param_sites);
  }

  // The remainder (if any), projected to the query's own output.
  auto compile_remainder = [&]() {
    if (plan.split.remainder.patterns.empty()) return;
    Query rem = plan.split.remainder;
    rem.select_vars = plan.out_vars;
    plan.remainder = executor_->Compile(rem);
    Rebase(plan.params, &plan.remainder);
  };

  // ---- route selection (Algorithm 3, decided once) ----------------------
  if (config_.use_graph && plan.split.HasComplexSubquery()) {
    const Query& qc = *plan.split.complex;
    if (GraphCovers(plan.split.query)) {
      // Case 1: the whole query runs in the graph store.
      plan.route = Route::kGraphOnly;
      DSKG_ASSIGN_OR_RETURN(plan.graph_whole,
                            matcher_->Compile(plan.split.query));
      Rebase(plan.params, &plan.graph_whole);
      return plan;
    }
    if (GraphCovers(qc)) {
      // Case 2: q_c in the graph store, remainder in the relational store.
      plan.route = Route::kDualStore;
      DSKG_ASSIGN_OR_RETURN(plan.graph_complex, matcher_->Compile(qc));
      Rebase(plan.params, &plan.graph_complex);
      compile_remainder();
      return plan;
    }
    // Case 3 falls through.
  }

  if (config_.use_views && views_ != nullptr &&
      plan.split.HasComplexSubquery()) {
    // RDB-views: probe the catalog per execution (the view's filters are
    // the *bound* constants), fall back to Case 3 on a miss.
    plan.try_view = true;
    compile_remainder();
  }

  // Case 3 (and the view-miss fallback): the whole query, relational.
  plan.rel = executor_->Compile(plan.split.query);
  Rebase(plan.params, &plan.rel);
  return plan;
}

// ---- execution --------------------------------------------------------------

namespace {

/// Drains a graph cursor whole through `matcher` — sharded over `pool`
/// while the cursor is unread — and records the traversal's wall vs.
/// simulated pair: how the real clock tracks the cost model's charge.
Result<BindingTable> DrainGraph(const TraversalMatcher& matcher,
                                TraversalMatcher::Cursor* cursor,
                                const CostMeter& meter, ThreadPool* pool) {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double wall0 = telem ? reg.NowMicros() : 0;
  const double sim0 = telem ? meter.sim_micros() : 0;
  DSKG_ASSIGN_OR_RETURN(BindingTable out, matcher.Drain(cursor, pool));
  if (telem) {
    Qm().graph_match_wall_us->Record(reg.NowMicros() - wall0);
    Qm().graph_match_sim_us->Record(meter.sim_micros() - sim0);
  }
  return out;
}

}  // namespace

/// Cursor internals. Meters live here so the engine cursors can hold
/// stable pointers to them while the public object moves around.
struct ExecutionCursor::Body {
  Route route = Route::kRelationalOnly;
  IdentifiedQuery split;  // bound
  CostMeter rel_meter;
  CostMeter graph_meter;
  CostMeter migrate_meter;

  /// Graph-only route: the resumable traversal streams rows directly; a
  /// whole drain goes through `matcher`, sharded over `pool`.
  std::optional<TraversalMatcher::Cursor> graph_cursor;
  const TraversalMatcher* matcher = nullptr;
  ThreadPool* pool = nullptr;

  /// Every other route: the final (unprojected) join intermediate plus
  /// its output columns (`Executor::OutputColumns`); chunks are projected
  /// on demand.
  BindingTable joined;
  std::vector<int> out_cols;
  size_t next_row = 0;

  std::vector<std::string> columns;
  bool done = false;

  /// Route and cost breakdown accrued so far (everything but the split).
  void Report(QueryExecution* exec) const {
    exec->route = route;
    exec->rel_micros = rel_meter.sim_micros();
    exec->graph_micros = graph_meter.sim_micros();
    exec->migrate_micros = migrate_meter.sim_micros();
    exec->graph_io_micros = graph_meter.io_micros();
    exec->graph_cpu_micros = graph_meter.cpu_micros();
  }
};

ExecutionCursor::ExecutionCursor() = default;
ExecutionCursor::~ExecutionCursor() = default;
ExecutionCursor::ExecutionCursor(ExecutionCursor&&) noexcept = default;
ExecutionCursor& ExecutionCursor::operator=(ExecutionCursor&&) noexcept =
    default;

const std::vector<std::string>& ExecutionCursor::columns() const {
  // Default-constructed / moved-from cursors answer benignly instead of
  // dereferencing a null body.
  static const std::vector<std::string> kEmpty;
  return body_ != nullptr ? body_->columns : kEmpty;
}

Route ExecutionCursor::route() const {
  return body_ != nullptr ? body_->route : Route::kRelationalOnly;
}

QueryExecution ExecutionCursor::Execution() const {
  QueryExecution exec;
  if (body_ == nullptr) return exec;
  exec.split = body_->split;
  body_->Report(&exec);
  return exec;
}

Status ExecutionCursor::Next(sparql::BindingTable* chunk, size_t max_rows,
                             bool* done) {
  if (body_ == nullptr) {
    return Status::FailedPrecondition(
        "cursor is empty (default-constructed or moved from)");
  }
  if (max_rows == 0) {
    return Status::InvalidArgument("a cursor pull must ask for >= 1 row");
  }
  Body& b = *body_;
  chunk->columns = b.columns;
  chunk->ClearRows();
  if (b.done) {
    *done = true;
    return Status::OK();
  }
  if (b.graph_cursor.has_value()) {
    if (max_rows == std::numeric_limits<size_t>::max()) {
      DSKG_ASSIGN_OR_RETURN(*chunk, DrainGraph(*b.matcher, &*b.graph_cursor,
                                               b.graph_meter, b.pool));
      b.done = true;
    } else {
      DSKG_RETURN_NOT_OK(b.graph_cursor->Fill(chunk, max_rows, &b.done));
    }
    *done = b.done;
    return Status::OK();
  }
  const size_t end =
      b.next_row + std::min(max_rows, b.joined.NumRows() - b.next_row);
  chunk->AppendRowsFrom(b.joined, b.out_cols, b.next_row, end);
  b.next_row = end;
  if (b.next_row >= b.joined.NumRows()) b.done = true;
  *done = b.done;
  return Status::OK();
}

Result<ExecutionCursor> QueryProcessor::OpenCursor(
    const PreparedPlan& plan, const TermId* param_values) const {
  ExecutionCursor cursor;
  cursor.body_ = std::make_unique<ExecutionCursor::Body>();
  ExecutionCursor::Body& b = *cursor.body_;
  b.split = BindSplit(plan, param_values);
  b.graph_meter = CostMeter(&CostModel::Default(), config_.graph_throttle);
  b.matcher = matcher_;
  b.pool = config_.exec_pool;

  // ---- Case 1: the traversal streams as the cursor is pulled -----------
  if (plan.route == Route::kGraphOnly) {
    b.route = Route::kGraphOnly;
    b.columns = plan.graph_whole.out_vars;
    DSKG_ASSIGN_OR_RETURN(
        TraversalMatcher::Cursor gc,
        matcher_->OpenCursor(plan.graph_whole, param_values, &b.graph_meter));
    b.graph_cursor = std::move(gc);
    return cursor;
  }

  // ---- Case 2 and view hits: a seed for the relational remainder -------
  std::optional<BindingTable> seed;
  if (plan.route == Route::kDualStore) {
    b.route = Route::kDualStore;
    DSKG_ASSIGN_OR_RETURN(
        TraversalMatcher::Cursor gc,
        matcher_->OpenCursor(plan.graph_complex, param_values,
                             &b.graph_meter));
    DSKG_ASSIGN_OR_RETURN(
        seed, DrainGraph(*matcher_, &gc, b.graph_meter, config_.exec_pool));
    // Migrate the intermediate results into the temporary table space.
    // The matcher's columnar table is handed to the executor as-is — the
    // seed adoption is one flat-buffer copy, no per-row re-keying.
    b.migrate_meter.Add(Op::kMigrateResultRow, seed->NumRows());
    b.migrate_meter.Add(Op::kTempTableTuple, seed->NumRows());
  } else if (plan.try_view) {
    std::optional<relstore::MaterializedViewManager::Answer> ans =
        views_->TryAnswer(b.split.complex->patterns, &b.rel_meter);
    if (ans.has_value()) {
      b.route = Route::kViewAssisted;
      seed = std::move(ans->bindings);
    }
  }

  // ---- the relational store finishes (Case 3 runs the whole query) ------
  BindingTable joined;
  if (!seed.has_value()) {
    DSKG_ASSIGN_OR_RETURN(joined, RunRelational(plan.rel, param_values,
                                                nullptr, &b.rel_meter));
  } else if (!plan.remainder.patterns.empty()) {
    DSKG_ASSIGN_OR_RETURN(joined, RunRelational(plan.remainder, param_values,
                                                &*seed, &b.rel_meter));
  } else {
    joined = std::move(*seed);  // the seed is the whole result
  }
  DSKG_ASSIGN_OR_RETURN(b.out_cols,
                        Executor::OutputColumns(joined, plan.out_vars));
  b.columns = plan.out_vars;
  b.joined = std::move(joined);
  return cursor;
}

Result<QueryExecution> QueryProcessor::ExecutePlan(
    const PreparedPlan& plan, const TermId* param_values) const {
  auto& reg = telemetry::MetricsRegistry::Global();
  const bool telem = reg.enabled();
  const double start_us = telem ? reg.NowMicros() : 0;
  DSKG_ASSIGN_OR_RETURN(ExecutionCursor cursor,
                        OpenCursor(plan, param_values));
  QueryExecution exec;
  bool done = false;
  DSKG_RETURN_NOT_OK(cursor.Next(
      &exec.result, std::numeric_limits<size_t>::max(), &done));
  exec.split = std::move(cursor.body_->split);
  cursor.body_->Report(&exec);

  const int ri = static_cast<int>(exec.route);
  Qm().route_count[ri]->Add();
  if (telem) {
    const double wall = reg.NowMicros() - start_us;
    Qm().wall_us[ri]->Record(wall);
    Qm().sim_us[ri]->Record(exec.total_micros());
    if (reg.traces().enabled()) {
      reg.traces().Record("query.execute", start_us, wall);
    }
  }
  return exec;
}

}  // namespace dskg::core
