// The wire phase: the catalog served by the network server on loopback.
//
// ingest-yago runs it last, on its recovered store. The server runs 2
// workers; a closed loop of 2 client connections, each on its own thread
// and each preparing every template once, sends a fixed number of
// requests. Every answer on the wire is checked against an in-process
// Session on the same store: the same rows and the same simulated
// charges. The phase feeds the server layer metrics only; no end-to-end
// metric is taken from it (wire round trips on a shared machine swung by
// 2x between runs of identical work, see NOTES.md).

#include <algorithm>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dskg::Result;
using dskg::core::OnlineStore;
using dskg::workload::Workload;

constexpr int kClients = 2;
constexpr int kServerWorkers = 2;

struct Expected {
  RowDigest digest;
  double sim_us = 0;
};

/// What one client saw: the round trip of every execution, and the
/// summed round trips of every request it sent (prepares included).
struct ClientTally {
  std::vector<double> execute_ms;
  double request_ms = 0;
};

/// One closed-loop client: prepares every template once, then sends
/// `requests` executions back to back, checking each answer against
/// `expected`. The client walks the catalog in its own order, reshuffled
/// every pass (from `order_seed`).
void ClientLoop(int client, uint16_t port, const Workload& w,
                const std::vector<Expected>& expected, uint64_t order_seed,
                int requests, Report* report, ClientTally* tally) {
  Span root("serve.client", static_cast<uint64_t>(client));
  Result<dskg::server::Client> conn = dskg::server::Client::Connect(port);
  report->CheckStatus(conn.status(), "client connect");
  if (!conn.ok()) return;
  dskg::server::Client c = std::move(conn).ValueOrDie();
  std::unordered_map<std::string, uint32_t> stmts;
  for (const auto& wq : w.queries) {
    if (stmts.count(wq.prepared_text) != 0) continue;
    const uint32_t id = static_cast<uint32_t>(stmts.size() + 1);
    const double t0 = NowSeconds();
    report->CheckStatus(c.Prepare(id, wq.prepared_text).status(), "wire prepare");
    tally->request_ms += (NowSeconds() - t0) * 1e3;
    stmts[wq.prepared_text] = id;
  }
  const size_t n = w.queries.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  dskg::Rng rng(order_seed);
  for (int k = 0; k < requests; ++k) {
    if (static_cast<size_t>(k) % n == 0) rng.Shuffle(&order);
    const size_t i = order[static_cast<size_t>(k) % n];
    const auto& wq = w.queries[i];
    const uint64_t qid = (static_cast<uint64_t>(client) << 32) | static_cast<uint64_t>(k + 1);
    const double t0 = NowSeconds();
    Result<dskg::server::RowsResult> rows = [&] {
      Span span("server.round_trip", qid);
      return c.Execute(stmts[wq.prepared_text], wq.bindings);
    }();
    const double wall_ms = (NowSeconds() - t0) * 1e3;
    tally->execute_ms.push_back(wall_ms);
    tally->request_ms += wall_ms;
    if (!rows.ok()) {
      report->CheckStatus(rows.status(), "wire execute " + std::to_string(i));
      continue;
    }
    const double sim_us = rows->rel_us + rows->graph_us + rows->migrate_us;
    report->Check(DigestWireRows(rows->rows) == expected[i].digest &&
                      sim_us == expected[i].sim_us,
                  "wire answer of catalog query " + std::to_string(i) +
                      " differs from the in-process session's");
  }
}

}  // namespace

void ServeOverWire(OnlineStore* store, const Workload& w, uint64_t seed,
                   int requests_per_client, Report* report) {
  // ---- in-process expectations ----------------------------------------------
  std::vector<Expected> expected;
  {
    dskg::core::Session session(store);
    for (size_t i = 0; i < w.queries.size(); ++i) {
      bool vanished = false;
      auto r = ExecuteWorkloadQuery(&session, w.queries[i], &vanished);
      report->CheckStatus(r.status(), "in-process query " + std::to_string(i));
      Expected e;
      if (r.ok() && !vanished) {
        auto guard = store->Read();
        e.digest = DigestTable(r->result, guard.store().dict());
        e.sim_us = r->rel_micros + r->graph_micros + r->migrate_micros;
      }
      expected.push_back(e);
    }
  }

  dskg::server::ServerConfig scfg;
  scfg.enable_admin = false;
  scfg.workers = kServerWorkers;
  dskg::server::Server server(store, scfg);
  report->CheckStatus(server.Start(), "server start");

  // ---- the closed loop ---------------------------------------------------------
  RegistryPhase reg;
  std::vector<ClientTally> tallies(kClients);
  const dskg::server::Server::Stats before = server.stats();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLoop(c + 1, server.port(), w, expected, SubSeed(seed, 11 + c),
                   requests_per_client, report, &tallies[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const dskg::server::Server::Stats after = server.stats();
  server.Stop();

  std::vector<double> execute_ms;
  double request_ms = 0;
  for (const ClientTally& t : tallies) {
    execute_ms.insert(execute_ms.end(), t.execute_ms.begin(), t.execute_ms.end());
    request_ms += t.request_ms;
  }
  report->Check(after.requests_rejected == before.requests_rejected,
                "server rejected requests under the closed loop");
  report->Note("wire_requests", static_cast<double>(execute_ms.size()));

  const double round_trip_us = Sum(execute_ms) * 1e3 / std::max<size_t>(1, execute_ms.size());
  const double request_us = reg.Mean("server.request_us");
  report->Layer("server.round_trip_us", round_trip_us, "us");
  report->Layer("server.request_us", request_us, "us");
  report->Layer("server.wire_overhead_us", round_trip_us - request_us, "us");
  report->Layer("server.batch_size_mean", reg.Mean("server.batch_size"), "count");
  report->Layer("server.rejected",
                static_cast<double>(after.requests_rejected - before.requests_rejected),
                "count");
  const double hits = reg.Value("plan_cache.shared.hits");
  const double misses = reg.Value("plan_cache.shared.misses");
  report->Layer("server.plan_cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  // Queue wait plus execution, timed inside the server, must fit in the
  // clients' round trips of the same requests.
  if (Traced()) {
    report->CheckLayerSplit("wire", request_ms,
                            {{"server.request", reg.Value("server.request_us.sum") * 1e-3}});
  }
}

}  // namespace perfbench
