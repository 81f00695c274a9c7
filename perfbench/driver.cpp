// perfbench driver: one process runs one workload of the benchmark in one
// of two modes and prints one JSON object on stdout (perfbench/run.py
// spawns it, checks the outputs and aggregates).
//
//   --mode run    One end-to-end repetition: set-up, the simulation through
//                 the public drivers (core::run_stream_experiment or
//                 core::run_fleet_experiment), and the rendered report
//                 (core::to_json), timed from the start of main().
//   --mode trace  The traced per-layer pass. It repeats the pull loop of
//                 run_stream_experiment over the public classes with a timer
//                 around each call, checks that the loop reproduces the
//                 untraced driver's counters, then replays what the run
//                 produced: the authoritative exchanges through
//                 Hierarchy::query_into and the trace's names through
//                 Cache::lookup and NameTable::find.
//
// The file is built twice (see CMakeLists.txt). Timings are read from
// perfbench_timed; allocation counts only from perfbench_counted, which
// links the counting operator-new hook.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "attack/injector.h"
#include "attack/scenario.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "core/presets.h"
#include "core/report.h"
#include "metrics/json.h"
#include "sim/alloc_counter.h"
#include "sim/event_queue.h"
#include "trace/workload_stream.h"

using namespace dnsshield;
namespace counter = sim::alloc_counter;
using Clock = std::chrono::steady_clock;
using resolver::CachingServer;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// 64-bit FNV-1a over a rendered report.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// VmHWM of this process in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

// ---- Workloads ------------------------------------------------------------

struct Workload {
  core::ExperimentSetup setup;
  resolver::ResilienceConfig config;
  std::uint32_t shards = 1;  // > 1: the sharded fleet driver, lean shards
  int jobs = 1;

  bool fleet() const { return shards > 1; }
  sim::Duration horizon() const { return setup.workload.duration; }
};

// The benchmark's workloads. `seed` drives the query trace; the hierarchy
// is the paper's fixed synthetic tree of each workload. Each shape is
// scaled down (rate, or duration and attack start) so that one repetition
// takes a few seconds and a run holds several.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.setup.hierarchy = core::default_hierarchy();
  w.setup.workload = core::all_trace_presets()[4].workload;  // TRC5
  w.setup.workload.seed = seed;
  trace::WorkloadParams& wl = w.setup.workload;
  if (name == "renewal_week") {
    // Renewal work grows with simulated time, not with the query rate, so
    // this shape is halved in time as well: 3.5 days, attack at day 3.
    wl.mean_rate_qps /= 2;
    wl.duration = sim::days(3.5);
    w.config = resolver::ResilienceConfig::refresh_renew(
        resolver::RenewalPolicy::kAdaptiveLfu, 5);
    w.setup.attack =
        core::AttackSpec::root_and_tlds(sim::days(3), sim::hours(6));
  } else if (name == "vanilla_outage") {
    w.setup.hierarchy.num_slds = 20000;
    wl.mean_rate_qps /= 4;
    w.config = resolver::ResilienceConfig::vanilla();
    w.setup.attack =
        core::AttackSpec::root_and_tlds(sim::days(6), sim::hours(24));
  } else if (name == "fleet_stream") {
    wl.arrivals = trace::ArrivalModel::kPerClient;
    wl.num_clients = 1'000'000;
    wl.mean_rate_qps = 17.0 / 4;
    wl.duration = sim::days(2);
    w.config = resolver::ResilienceConfig::combination(3);
    w.setup.attack =
        core::AttackSpec::root_and_tlds(sim::days(1), sim::hours(6));
    w.shards = 32;
    w.jobs = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

// ---- Set-up ---------------------------------------------------------------

server::Hierarchy build(const Workload& w) {
  server::Hierarchy h = server::build_hierarchy(w.setup.hierarchy);
  if (w.config.long_ttl_override != 0) {
    h.override_irr_ttls(w.config.long_ttl_override);
  }
  return h;
}

void intern_rdata_names(const dns::Rdata& rdata, dns::NameTable& names) {
  if (const auto* ns = std::get_if<dns::NsRdata>(&rdata)) {
    names.intern(ns->nsdname);
  } else if (const auto* cname = std::get_if<dns::CnameRdata>(&rdata)) {
    names.intern(cname->target);
  } else if (const auto* soa = std::get_if<dns::SoaRdata>(&rdata)) {
    names.intern(soa->mname);
    names.intern(soa->rname);
  } else if (const auto* mx = std::get_if<dns::MxRdata>(&rdata)) {
    names.intern(mx->exchange);
  }
}

// The fleet's frozen shared name table, built through the public API the
// same way run_fleet_experiment builds its own internally.
std::unique_ptr<dns::NameTable> fleet_names(const server::Hierarchy& h) {
  auto names = std::make_unique<dns::NameTable>();
  names->intern(dns::Name::root());
  for (const dns::Name& origin : h.zone_origins()) {
    names->intern(origin);
    const server::Zone* zone = h.find_zone(origin);
    if (zone == nullptr) continue;
    for (const auto& rdata : zone->ns_set().rdatas()) {
      intern_rdata_names(rdata, *names);
    }
    for (const auto& [key, rrset] : zone->records()) {
      names->intern(key.first);
      for (const auto& rdata : rrset.rdatas()) intern_rdata_names(rdata, *names);
    }
    for (const auto& host : zone->server_hostnames()) names->intern(host);
  }
  for (const auto& name : h.host_names()) names->intern(name);
  for (const auto& name : h.server_host_names()) names->intern(name);
  names->freeze();
  return names;
}

// The full set-up a run pays before its first query.
struct Setup {
  server::Hierarchy hierarchy;
  std::unique_ptr<dns::NameTable> names;  // fleet only
};

Setup set_up(const Workload& w) {
  Setup s{build(w), nullptr};
  if (w.fleet()) s.names = fleet_names(s.hierarchy);
  return s;
}

core::FleetExperimentResult run_fleet(const Workload& w, int jobs) {
  core::FleetRunOptions options;
  options.shards = w.shards;
  options.jobs = jobs;
  options.lean_shards = true;
  return core::run_fleet_experiment(w.setup, w.config, options);
}

// One shard (or the whole trace, for single runs) through the untraced
// streaming driver, with the options the fleet gives its shards.
core::ExperimentResult run_shard(const Workload& w, const server::Hierarchy& h,
                                 dns::NameTable* names,
                                 trace::ShardSlice slice) {
  trace::WorkloadStream stream(h, w.setup.workload, slice);
  core::StreamRunOptions options;
  options.shared_names = names;
  options.collect_distributions = !w.fleet();
  return core::run_stream_experiment(h, w.setup, w.config, stream,
                                     w.horizon(), options);
}

void add_fingerprint(metrics::JsonWriter& json) {
  json.key("compiler").value(__VERSION__);
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("alloc_hook").value(counter::counting_active());
}

// ---- --mode run -----------------------------------------------------------

constexpr std::size_t kMinSetupReps = 2;
constexpr std::size_t kMaxSetupReps = 10;
constexpr double kSetupBudgetS = 0.5;

int run_mode(const std::string& name, std::uint64_t seed,
             Clock::time_point t_main) {
  const Workload w = make_workload(name, seed);
  std::vector<double> setup_s;
  core::ExperimentResult result;
  double run_s = 0;
  std::uint64_t run_allocs = 0;
  if (w.fleet()) {
    // The fleet driver sets up internally; its set-up is timed below
    // through the same public calls, after the report.
    counter::reset();
    const auto t0 = Clock::now();
    result = run_fleet(w, w.jobs).aggregate;
    run_s = seconds_since(t0);
    run_allocs = counter::allocations();
  } else {
    auto t0 = Clock::now();
    const Setup s = set_up(w);
    setup_s.push_back(seconds_since(t0));
    counter::reset();
    t0 = Clock::now();
    result = run_shard(w, s.hierarchy, nullptr, {});
    run_s = seconds_since(t0);
    run_allocs = counter::allocations();
  }
  const auto t_report = Clock::now();
  const std::string report = core::to_json(result);
  const std::uint64_t report_digest = digest(report);
  const double report_s = seconds_since(t_report);
  const double wall_s = seconds_since(t_main);
  const double rss_mb = peak_rss_mb();

  // Further set-ups for a median, outside the wall-clock window: at
  // least kMinSetupReps, more while they are cheap.
  std::uint64_t setup_allocs = 0;
  double setup_total_s = 0;
  for (const double s : setup_s) setup_total_s += s;
  while (setup_s.size() < kMinSetupReps ||
         (setup_s.size() < kMaxSetupReps && setup_total_s < kSetupBudgetS)) {
    counter::reset();
    const auto t0 = Clock::now();
    const Setup s = set_up(w);
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
    setup_allocs = counter::allocations();
  }
  const double setup_median = median(setup_s);
  // The fleet's run time includes its internal set-up; take it out so the
  // query rate measures the simulation alone, as for single runs.
  const double loop_s = w.fleet() ? run_s - setup_median : run_s;
  const std::uint64_t sim_allocs =
      w.fleet() && run_allocs > setup_allocs ? run_allocs - setup_allocs
                                             : run_allocs;

  const std::uint64_t queries = result.totals.sr_queries;
  const std::uint64_t events = result.trace_stats.requests_in;

  metrics::JsonWriter json;
  json.begin_object();
  json.key("mode").value("run");
  json.key("workload").value(name);
  json.key("seed").value(seed);
  add_fingerprint(json);
  json.key("setup_s").begin_array();
  for (const double s : setup_s) json.value(s);
  json.end_array();
  json.key("run_s").value(run_s);
  json.key("loop_s").value(loop_s);
  json.key("report_s").value(report_s);
  json.key("wall_s").value(wall_s);
  json.key("peak_rss_mb").value(rss_mb);
  json.key("sr_queries").value(queries);
  json.key("trace_events").value(events);
  json.key("queries_per_s").value(ratio(static_cast<double>(queries), loop_s));
  if (counter::counting_active()) {
    json.key("allocs_per_query")
        .value(ratio(static_cast<double>(sim_allocs),
                     static_cast<double>(queries)));
  }
  json.key("digest").value(hex(report_digest));
  json.key("checks").begin_object();
  json.key("sr_queries_equal_trace_events")
      .value(queries == events && queries > 0);
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.take().c_str());
  return 0;
}

// ---- --mode trace ---------------------------------------------------------

// Accumulated spans of one kind of call.
struct Tally {
  double ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;

  double mean_ns() const { return ratio(ns, static_cast<double>(calls)); }
  double allocs_per_call() const {
    return ratio(static_cast<double>(allocs), static_cast<double>(calls));
  }
};

// Contiguous spans: each stamp() closes the span opened by the previous
// stamp (or restart()) and charges it to one tally.
class Stamper {
 public:
  Stamper() { restart(); }
  void restart() {
    t_ = Clock::now();
    a_ = counter::allocations();
  }
  double stamp(Tally& tally) {
    const auto t = Clock::now();
    const std::uint64_t a = counter::allocations();
    const double ns = ns_between(t_, t);
    tally.ns += ns;
    tally.allocs += a - a_;
    ++tally.calls;
    t_ = t;
    a_ = a;
    return ns;
  }

 private:
  Clock::time_point t_;
  std::uint64_t a_ = 0;
};

// The resolver stack run_stream_experiment builds, over public classes.
// Every workload's attack is a root+TLD outage.
struct Stack {
  Stack(const Workload& w, const server::Hierarchy& h, dns::NameTable* names,
        trace::ShardSlice slice)
      : injector(h, attack::root_and_tlds(h, w.setup.attack.start,
                                          w.setup.attack.duration)),
        cs(h, injector, events, w.config, names),
        stream(h, w.setup.workload, slice),
        trace_stats(h) {
    cs.set_collect_distributions(!w.fleet());
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  attack::AttackInjector injector;
  sim::EventQueue events;
  CachingServer cs;
  trace::WorkloadStream stream;
  trace::TraceStatsAccumulator trace_stats;
};

// What an untimed pass with set_query_log captures for the replays.
struct Capture {
  struct Answered {
    dns::IpAddr server;
    dns::Question question;
    dns::Rcode rcode = dns::Rcode::kNoError;
    bool referral = false;
  };
  std::vector<Answered> answered;      // exchanges Hierarchy::query_into served
  std::vector<dns::Question> queries;  // the trace's stub queries
  // Every exchange the resolver addressed to a server, answered or lost
  // to the attack, and the renewal/prefetch share of them.
  std::uint64_t exchanges = 0;
  std::uint64_t renewal_exchanges = 0;
};

void capture(const Workload& w, const server::Hierarchy& h,
             dns::NameTable* names, trace::ShardSlice slice, Capture& out) {
  Stack s(w, h, names, slice);
  s.cs.set_query_log([&out](const CachingServer::Exchange& x) {
    ++out.exchanges;
    if (x.is_renewal) ++out.renewal_exchanges;
    if (x.answered) {
      out.answered.push_back({x.server, x.question, x.rcode, x.referral});
    }
  });
  while (const trace::QueryEvent* ev = s.stream.next()) {
    s.events.run_until(ev->time);
    s.cs.resolve(ev->qname, ev->qtype);
    out.queries.push_back({ev->qname, ev->qtype});
  }
  s.events.run_until(w.horizon());
}

struct Layers {
  Tally next, run_until, resolve, cache_lookup, name_find, ans;
  std::vector<std::uint32_t> resolve_ns;
  std::uint64_t events = 0;
  std::uint64_t events_fired = 0;
  std::size_t queue_peak = 0;
  std::uint64_t denials = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t renewal_exchanges = 0;
  CachingServer::Stats cs;
  resolver::Cache::Stats cache;
  double traced_loop_s = 0;
  std::uint64_t mismatches = 0;  // traced mirror or replay disagreed
};

void add_stats(CachingServer::Stats& into, const CachingServer::Stats& s) {
  into.sr_queries += s.sr_queries;
  into.sr_failures += s.sr_failures;
  into.msgs_sent += s.msgs_sent;
  into.msgs_failed += s.msgs_failed;
  into.cache_answer_hits += s.cache_answer_hits;
  into.renewal_fetches += s.renewal_fetches;
  into.referrals_followed += s.referrals_followed;
  into.stale_serves += s.stale_serves;
  into.host_prefetches += s.host_prefetches;
  into.failover_hops += s.failover_hops;
  into.bytes_sent += s.bytes_sent;
  into.bytes_received += s.bytes_received;
}

void add_cache(resolver::Cache::Stats& into, const resolver::Cache::Stats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.insertions += s.insertions;
  into.rejections += s.rejections;
  into.evictions += s.evictions;
}

bool same_stats(const CachingServer::Stats& a, const CachingServer::Stats& b) {
  return a.sr_queries == b.sr_queries && a.sr_failures == b.sr_failures &&
         a.msgs_sent == b.msgs_sent && a.msgs_failed == b.msgs_failed &&
         a.cache_answer_hits == b.cache_answer_hits &&
         a.renewal_fetches == b.renewal_fetches &&
         a.referrals_followed == b.referrals_followed &&
         a.stale_serves == b.stale_serves &&
         a.host_prefetches == b.host_prefetches &&
         a.failover_hops == b.failover_hops && a.bytes_sent == b.bytes_sent &&
         a.bytes_received == b.bytes_received;
}

bool same_cache(const resolver::Cache::Stats& a,
                const resolver::Cache::Stats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.insertions == b.insertions && a.rejections == b.rejections &&
         a.evictions == b.evictions;
}

// The traced mirror of run_stream_experiment's pull loop for one shard,
// followed by the cache and name-table probes against its end-of-run
// cache. `reference` (the untraced run of the same shard) is null in the
// counting binary, which only reads allocation counts.
void traced(const Workload& w, const server::Hierarchy& h,
            dns::NameTable* names, trace::ShardSlice slice,
            const std::vector<dns::Question>& queries,
            const core::ExperimentResult* reference, Layers& out) {
  Stack s(w, h, names, slice);
  const auto t_loop = Clock::now();
  Stamper span;
  for (;;) {
    const trace::QueryEvent* ev = s.stream.next();
    span.stamp(out.next);
    if (ev == nullptr) break;
    ++out.events;
    s.events.run_until(ev->time);
    span.stamp(out.run_until);
    s.cs.resolve(ev->qname, ev->qtype);
    const double ns = span.stamp(out.resolve);
    // Not spanned: the driver's trace statistics and this bookkeeping are
    // what unattributed_frac measures.
    out.resolve_ns.push_back(static_cast<std::uint32_t>(
        std::min(ns, static_cast<double>(UINT32_MAX))));
    s.trace_stats.add(*ev);
    span.restart();
  }
  s.events.run_until(w.horizon());
  span.stamp(out.run_until);
  out.traced_loop_s += seconds_since(t_loop);

  out.events_fired += s.events.fired();
  out.queue_peak = std::max(out.queue_peak, s.events.max_pending());
  out.denials += s.injector.denials();
  add_stats(out.cs, s.cs.stats());
  add_cache(out.cache, s.cs.cache().stats());
  if (reference != nullptr &&
      (!same_stats(s.cs.stats(), reference->totals) ||
       !same_cache(s.cs.cache().stats(), reference->cache_stats) ||
       s.trace_stats.stats().requests_in !=
           reference->trace_stats.requests_in)) {
    ++out.mismatches;
  }

  // Probes of the end-of-run cache, timed as batches (single calls are
  // too short for one clock read each).
  const resolver::Cache& cache = s.cs.cache();
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (const dns::Question& q : queries) {
    sink += cache.lookup(q.qname, q.qtype, w.horizon()) != nullptr;
  }
  auto t1 = Clock::now();
  out.cache_lookup.ns += ns_between(t0, t1);
  out.cache_lookup.calls += queries.size();
  for (const dns::Question& q : queries) sink += cache.names().find(q.qname);
  t0 = Clock::now();
  out.name_find.ns += ns_between(t1, t0);
  out.name_find.calls += queries.size();
  if (sink == 0) std::fprintf(stderr, "cache and name probes found nothing\n");
}

// The captured exchanges, answered again by the hierarchy.
void replay(const server::Hierarchy& h, const Capture& cap, Layers& out) {
  dns::Message query;
  dns::Message response;
  std::uint16_t id = 1;
  for (const Capture::Answered& x : cap.answered) {
    dns::Message::make_query_into(id++, x.question.qname, x.question.qtype,
                                  query);
    Stamper span;
    h.query_into(x.server, query, response);
    span.stamp(out.ans);
    if (response.header.rcode != x.rcode || response.is_referral() != x.referral) {
      ++out.mismatches;
    }
  }
  out.exchanges += cap.exchanges;
  out.renewal_exchanges += cap.renewal_exchanges;
}

double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

int trace_mode(const std::string& name, std::uint64_t seed) {
  const bool counting = counter::counting_active();
  const Workload w = make_workload(name, seed);

  auto t0 = Clock::now();
  const server::Hierarchy h = build(w);
  const double build_s = seconds_since(t0);
  const std::unique_ptr<dns::NameTable> names =
      w.fleet() ? fleet_names(h) : nullptr;

  Layers layers;
  std::vector<double> shard_s;
  CachingServer::Stats shard_totals;
  core::ExperimentResult reference;
  for (std::uint32_t shard = 0; shard < w.shards; ++shard) {
    const trace::ShardSlice slice{shard, w.shards};
    // The untimed capture runs first, so the untraced reference and the
    // traced loop both start warm.
    Capture cap;
    capture(w, h, names.get(), slice, cap);
    if (!counting) {
      t0 = Clock::now();
      reference = run_shard(w, h, names.get(), slice);
      shard_s.push_back(seconds_since(t0));
      add_stats(shard_totals, reference.totals);
    }
    traced(w, h, names.get(), slice, cap.queries,
           counting ? nullptr : &reference, layers);
    replay(h, cap, layers);
  }
  // The query log saw every message the resolver counted as sent.
  bool checks_ok = layers.mismatches == 0 &&
                   layers.events == layers.cs.sr_queries &&
                   layers.exchanges == layers.cs.msgs_sent;

  metrics::JsonWriter json;
  json.begin_object();
  json.key("mode").value("trace");
  json.key("workload").value(name);
  json.key("seed").value(seed);
  add_fingerprint(json);
  json.key("metrics").begin_object();
  const auto put = [&json](const char* key, double v) { json.key(key).value(v); };
  const auto count = [&json](const char* key, std::uint64_t v) {
    json.key(key).value(v);
  };
  const double queries = static_cast<double>(layers.cs.sr_queries);
  count("trace.events", layers.events);
  count("sim.events_fired", layers.events_fired);
  count("sim.queue_peak", layers.queue_peak);
  count("server.renewal_exchanges", layers.renewal_exchanges);
  put("server.exchanges_per_query",
      ratio(static_cast<double>(layers.exchanges), queries));
  count("resolver.resolve_samples", layers.resolve_ns.size());
  put("resolver.cache_answer_ratio",
      ratio(static_cast<double>(layers.cs.cache_answer_hits), queries));
  put("resolver.msgs_per_query",
      ratio(static_cast<double>(layers.cs.msgs_sent), queries));
  put("resolver.msgs_failed_ratio",
      ratio(static_cast<double>(layers.cs.msgs_failed),
            static_cast<double>(layers.cs.msgs_sent)));
  count("resolver.failover_hops", layers.cs.failover_hops);
  count("resolver.renewal_fetches", layers.cs.renewal_fetches);
  count("resolver.cache_hits", layers.cache.hits);
  count("resolver.cache_misses", layers.cache.misses);
  count("resolver.cache_insertions", layers.cache.insertions);
  count("resolver.cache_rejections", layers.cache.rejections);
  count("attack.denials", layers.denials);
  if (counting) {
    put("trace.allocs_per_event", layers.next.allocs_per_call());
    put("resolver.allocs_per_resolve", layers.resolve.allocs_per_call());
    put("server.allocs_per_exchange", layers.ans.allocs_per_call());
  } else {
    put("trace.next_ns", layers.next.mean_ns());
    put("sim.run_until_s", layers.run_until.ns * 1e-9);
    put("server.build_s", build_s);
    put("server.ans_ns", layers.ans.mean_ns());
    put("resolver.resolve_ns_p50", percentile(layers.resolve_ns, 0.5));
    put("resolver.resolve_ns_p999", percentile(layers.resolve_ns, 0.999));
    put("resolver.cache_lookup_ns", layers.cache_lookup.mean_ns());
    put("dns.name_find_ns", layers.name_find.mean_ns());

    double shard_sum = 0;
    for (const double s : shard_s) shard_sum += s;
    const double shard_max = *std::max_element(shard_s.begin(), shard_s.end());
    put("core.shard_s_max_over_median", ratio(shard_max, median(shard_s)));

    // The untraced driver of the workload: its wall time, report
    // rendering and, for the fleet, the jobs=1 identity and the shard sum.
    double driver_s = shard_sum;
    double report_s = 0;
    if (w.fleet()) {
      t0 = Clock::now();
      const core::FleetExperimentResult fleet = run_fleet(w, w.jobs);
      driver_s = seconds_since(t0);
      t0 = Clock::now();
      const std::string report = core::to_json(fleet.aggregate);
      report_s = seconds_since(t0);
      const std::string serial = core::to_json(run_fleet(w, 1).aggregate);
      const bool same_jobs = digest(report) == digest(serial);
      const bool shard_sum_ok = same_stats(shard_totals, fleet.aggregate.totals);
      if (!same_jobs) std::fprintf(stderr, "fleet report differs at jobs=1\n");
      if (!shard_sum_ok) std::fprintf(stderr, "fleet total != shard sum\n");
      checks_ok = checks_ok && same_jobs && shard_sum_ok &&
                  fleet.aggregate.totals.sr_queries ==
                      fleet.aggregate.trace_stats.requests_in;
    } else {
      t0 = Clock::now();
      core::to_json(reference);
      report_s = seconds_since(t0);
    }
    put("core.parallel_efficiency",
        ratio(shard_sum, static_cast<double>(w.fleet() ? w.jobs : 1) * driver_s));
    put("core.report_s", report_s);

    const double spanned_s = (layers.next.ns + layers.run_until.ns +
                              layers.resolve.ns) * 1e-9;
    put("trace_overhead_frac", ratio(layers.traced_loop_s, shard_sum) - 1);
    put("unattributed_frac",
        ratio(layers.traced_loop_s - spanned_s, layers.traced_loop_s));
  }
  json.end_object();
  json.key("checks").begin_object();
  json.key("traced_mirror_matches").value(layers.mismatches == 0);
  json.key("all").value(checks_ok);
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.take().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_main = Clock::now();
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--mode") {
      mode = argv[i + 1];
    } else if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::stoull(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    if (mode == "run") return run_mode(workload, seed, t_main);
    if (mode == "trace") return trace_mode(workload, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench driver: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: %s --mode run|trace --workload NAME --seed N\n",
               argv[0]);
  return 2;
}
