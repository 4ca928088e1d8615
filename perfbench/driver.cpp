// Repository benchmark driver: the paper's workloads, timed end to end,
// with an optional traced run that attributes the time to layers.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see BENCHMARK.json for the one-line reasons):
//   fig1-community    §5.1 community: 100 peers, 10 swarms, 50% lazy
//                     freeriders, no policy, maxflow, 60 s gossip
//   adversary-gossip  ban(-0.5), sharer/lazy/slanderer population,
//                     differential-gossip backend
//   swarm-heavy       the fig1 population with gossip every 30 min
//   observer-scale    Fig. 4 deployment observer at 10x the paper's peers
//
// One repetition = set-up (trace or population generation plus simulator
// construction) followed by the timed phase (CommunitySimulator::run() or
// analysis::run_observer()). The dataset (community trace, deployment
// population) is fixed; --seed picks the scenario seeds, three per
// community workload. Whole cycles over those seeds repeat while the time
// budget lasts; a time is the mean over seeds of each seed's median.
//
// --trace 0 runs untraced and reports the end-to-end metrics. --trace 1
// alternates untraced and traced repetitions (obs::Profiler on, registry
// zeroed before each), runs the end-of-run layer probe on the state of the
// last traced one, and reports the per-layer metrics. All numbers come
// from public functions: the profiler and registry snapshots, spans around
// this driver's own calls, and read-only probes of the finished run.
//
// Correctness: every repetition is digested (final reputations, class
// means, message totals) and must match the first repetition of its seed
// bit for bit, traced or not; each workload's paper-shape gates run on
// every repetition. The last stdout line is one JSON object:
//   {"result": {correct, attempted, failed, metrics}, "manifest": {...},
//    "attribution": {...}, "run_s_samples": [...], "failures": [...]}
// which perfbench/run.py unpacks.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/deployment_observer.hpp"
#include "analysis/experiment.hpp"
#include "bartercast/codec.hpp"
#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "bartercast/node.hpp"
#include "community/scenario.hpp"
#include "community/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "trace/deployment.hpp"
#include "trace/generator.hpp"
#include "util/units.hpp"

using namespace bc;

namespace {

// ---------------------------------------------------------------------------
// Timing and small helpers
// ---------------------------------------------------------------------------

/// The driver's only clock: host wall time of the spans it measures.
class Stopwatch {
 public:
  Stopwatch() : start_(now()) {}
  double seconds() const { return static_cast<double>(now() - start_) * 1e-9; }

  static std::int64_t now() {
    // bc-analyze: allow(D2) -- the benchmark measures host wall time by definition; this is its single clock read, and no simulation output depends on it
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
  }

 private:
  std::int64_t start_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over the exact bytes of everything fed in.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void expect(bool ok, const std::string& what) {
    ++run;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Outputs of one repetition that the digest, the gates and the end-to-end
/// metrics need.
struct RepOutcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  double generate_ms = 0.0;   // trace / population generation share of setup
  double post_run_ms = 0.0;   // analysis:: calls on the finished run
  std::uint64_t records = 0;  // BarterCast records applied
  std::uint64_t events = 0;   // sim::Engine events (community only)
  // net::Overlay::stats() at the end of the run (community only).
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::string digest;
};

/// End-of-run layer probe results (traced run only).
struct ProbeResult {
  double make_message_ns = 0.0;
  double receive_message_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double history_entries_mean = 0.0;
  double view_nodes_mean = 0.0;
  double view_edges_mean = 0.0;
  double reputation_cold_ns = 0.0;
  double reputation_warm_ns = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One full repetition: set-up, timed phase, digest and gates.
  virtual RepOutcome repeat(Checks& checks) = 0;
  /// Frees the state the last repetition left behind.
  virtual void release() = 0;
  /// Probes the state the last repetition left behind.
  virtual ProbeResult probe(Checks& checks) = 0;
  virtual bool is_community() const = 0;
  /// Workload configuration for the run manifest (JSON object body), and
  /// this instance's seeds (JSON object).
  virtual std::string config_json() const = 0;
  virtual std::string seed_json() const = 0;
};

/// Replays `messages` into fresh nodes and times every message-path layer.
/// `owners` give each fresh node its private history (owner-incident edges
/// anchor the two-hop maxflow); each fresh node receives every message
/// except its own.
struct ReplaySet {
  std::vector<bartercast::BarterCastMessage> messages;
  std::vector<const bartercast::PrivateHistory*> owners;
};

void probe_codec_and_replay(const ReplaySet& set,
                            const bartercast::NodeConfig& node_cfg,
                            Checks& checks, ProbeResult& out) {
  const std::size_t m = set.messages.size();
  if (m == 0) return;
  std::vector<std::vector<std::uint8_t>> wire(m);
  Stopwatch enc;
  for (std::size_t i = 0; i < m; ++i) {
    wire[i] = bartercast::encode(set.messages[i]);
  }
  out.encode_ns = enc.seconds() * 1e9 / static_cast<double>(m);
  std::vector<std::optional<bartercast::BarterCastMessage>> decoded(m);
  Stopwatch dec;
  for (std::size_t i = 0; i < m; ++i) {
    decoded[i] = bartercast::decode(wire[i]);
  }
  out.decode_ns = dec.seconds() * 1e9 / static_cast<double>(m);
  std::size_t round_trips = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto& d = decoded[i];
    if (d && d->sender == set.messages[i].sender &&
        d->records == set.messages[i].records) {
      ++round_trips;
    }
  }
  checks.expect(round_trips == m, "codec: decode(encode(m)) != m");

  double receive_s = 0.0, cold_s = 0.0, warm_s = 0.0;
  std::uint64_t receives = 0, evals = 0;
  double nodes_sum = 0.0, edges_sum = 0.0;
  for (const auto* owner_history : set.owners) {
    const PeerId self = owner_history->owner();
    bartercast::Node node(self, node_cfg);
    for (const auto& e : owner_history->entries()) {
      if (e.uploaded > 0) node.on_bytes_sent(e.peer, e.uploaded, e.last_seen);
      if (e.downloaded > 0) {
        node.on_bytes_received(e.peer, e.downloaded, e.last_seen);
      }
    }
    Stopwatch rx;
    for (const auto& msg : set.messages) {
      if (msg.sender == self) continue;
      node.receive_message(msg);
      ++receives;
    }
    receive_s += rx.seconds();
    const std::vector<PeerId> subjects = node.view().graph().nodes();
    std::vector<double> cold(subjects.size());
    Stopwatch c;
    for (std::size_t i = 0; i < subjects.size(); ++i) {
      cold[i] = node.reputation(subjects[i]);
    }
    cold_s += c.seconds();
    Stopwatch w;
    bool stable = true;
    for (std::size_t i = 0; i < subjects.size(); ++i) {
      stable = stable && node.reputation(subjects[i]) == cold[i];
    }
    warm_s += w.seconds();
    checks.expect(stable, "probe: warm reputation differs from cold");
    checks.expect(std::all_of(cold.begin(), cold.end(),
                              [](double r) { return r >= -1.0 && r <= 1.0; }),
                  "probe: reputation outside [-1, 1]");
    evals += subjects.size();
    nodes_sum += static_cast<double>(node.view().graph().num_nodes());
    edges_sum += static_cast<double>(node.view().graph().num_edges());
  }
  const auto owners = static_cast<double>(set.owners.size());
  if (receives > 0) {
    out.receive_message_ns = receive_s * 1e9 / static_cast<double>(receives);
  }
  if (evals > 0) {
    out.reputation_cold_ns = cold_s * 1e9 / static_cast<double>(evals);
    out.reputation_warm_ns = warm_s * 1e9 / static_cast<double>(evals);
  }
  if (owners > 0) {
    out.view_nodes_mean = nodes_sum / owners;
    out.view_edges_mean = edges_sum / owners;
  }
}

/// Community workloads run this many scenario seeds per cycle, so that one
/// unlucky behaviour assignment does not move a run's figures.
constexpr std::uint64_t kCommunitySubSeeds = 3;

struct CommunitySpec {
  std::string name;
  Seconds duration = kDay;
  bartercast::ReputationPolicy policy = bartercast::ReputationPolicy::none();
  std::string population;  // empty: the legacy 50% lazy-freerider split
  bartercast::BackendKind backend = bartercast::BackendKind::kMaxflow;
  Seconds gossip_interval = 60.0;
  /// The gate expects sharers below freeriders: slander inverts the
  /// differential-gossip backend's class gap (BENCH_adversary.json).
  bool inverted_gap = false;
};

class CommunityWorkload final : public Workload {
 public:
  CommunityWorkload(CommunitySpec spec, std::uint64_t seed)
      : spec_(std::move(spec)) {
    // The trace is the fixed dataset, as the paper replays one filelist
    // trace; --seed drives the scenario (behaviour assignment, peer
    // sampling, choking, latencies). 100 peers and 10 swarms as in §5.1,
    // compressed to 12 h: files of 200-512 MiB and 2-5 requests per peer
    // keep the swarm load of the compressed trace near the paper's week,
    // so the message path, not BitTorrent rounds, leads fig1-community.
    trace_cfg_.seed = kTraceSeed;
    trace_cfg_.num_peers = 100;
    trace_cfg_.num_swarms = 10;
    trace_cfg_.duration = spec_.duration;
    trace_cfg_.file_size_min = mib(200);
    trace_cfg_.file_size_max = mib(512);
    trace_cfg_.requests_per_peer_min = 2;
    trace_cfg_.requests_per_peer_max = 5;
    cfg_.seed = seed;
    cfg_.threads = 1;
    cfg_.policy = spec_.policy;
    cfg_.population = spec_.population;
    cfg_.node.backend = spec_.backend;
    cfg_.gossip_interval = spec_.gossip_interval;
  }

  bool is_community() const override { return true; }

  RepOutcome repeat(Checks& checks) override {
    RepOutcome out;
    // Set-up takes about a millisecond here, so it is sampled several
    // times per repetition; the last simulator built is the one that runs.
    std::vector<double> setup_s, generate_ms;
    for (int i = 0; i < kSetupSamples; ++i) {
      sim_.reset();
      Stopwatch setup;
      trace::Trace trace = trace::generate(trace_cfg_);
      generate_ms.push_back(setup.seconds() * 1e3);
      sim_ = std::make_unique<community::CommunitySimulator>(std::move(trace),
                                                             cfg_);
      setup_s.push_back(setup.seconds());
    }
    out.setup_s = median(setup_s);
    out.generate_ms = median(generate_ms);
    Stopwatch run;
    sim_->run();
    out.run_s = run.seconds();

    const auto& m = sim_->metrics();
    out.records = m.messages.records_applied;
    out.events = sim_->engine().events_processed();
    const auto& net = sim_->overlay().stats();
    out.net_sent = net.sent;
    out.net_delivered = net.delivered;
    out.net_dropped = net.dropped_sender_offline +
                      net.dropped_receiver_offline + net.dropped_unconnectable;

    Stopwatch post;
    const double pearson = analysis::contribution_correlation(m);
    const double spearman = analysis::contribution_rank_correlation(m);
    out.post_run_ms = post.seconds() * 1e3;

    double sum_s = 0.0, sum_f = 0.0;
    std::size_t n_s = 0, n_f = 0;
    Digest d;
    for (const auto& o : m.outcomes) {
      d.add(o.final_system_reputation);
      d.add(static_cast<std::uint64_t>(o.total_uploaded));
      d.add(static_cast<std::uint64_t>(o.total_downloaded));
      (o.freerider ? sum_f : sum_s) += o.final_system_reputation;
      ++(o.freerider ? n_f : n_s);
    }
    const double mean_s = n_s > 0 ? sum_s / static_cast<double>(n_s) : 0.0;
    const double mean_f = n_f > 0 ? sum_f / static_cast<double>(n_f) : 0.0;
    d.add(mean_s);
    d.add(mean_f);
    d.add(m.messages.messages_sent);
    d.add(m.messages.messages_received);
    d.add(m.messages.records_applied);
    d.add(m.messages.records_dropped());
    d.add(m.messages.gossip_exchanges);
    d.add(out.events);
    out.digest = d.hex();

    checks.expect(n_s > 0 && n_f > 0, spec_.name + ": both classes present");
    checks.expect(m.messages.records_applied > 0,
                  spec_.name + ": records were applied");
    checks.expect(out.net_delivered + out.net_dropped <= out.net_sent &&
                      m.messages.messages_received == out.net_delivered,
                  spec_.name + ": every delivered message was handled");
    if (spec_.inverted_gap) {
      checks.expect(mean_s - mean_f < 0.0,
                    spec_.name + ": reputation gap keeps its recorded "
                                 "negative sign");
    } else {
      checks.expect(mean_s > mean_f,
                    spec_.name + ": sharers above freeriders");
      checks.expect(pearson > 0.0 && spearman > 0.0,
                    spec_.name + ": reputation correlates with contribution");
    }
    return out;
  }

  ProbeResult probe(Checks& checks) override {
    ProbeResult out;
    const auto& sim = *sim_;
    const std::size_t n = sim.num_trace_peers();
    const Seconds now = sim.engine().now();
    ReplaySet set;
    set.messages.reserve(n);
    Stopwatch mk;
    for (PeerId p = 0; p < n; ++p) {
      set.messages.push_back(sim.node(p).make_message(now));
    }
    out.make_message_ns = mk.seconds() * 1e9 / static_cast<double>(n);
    double entries = 0.0, nodes = 0.0, edges = 0.0;
    for (PeerId p = 0; p < n; ++p) {
      const auto& node = sim.node(p);
      set.owners.push_back(&node.history());
      entries += static_cast<double>(node.history().size());
      nodes += static_cast<double>(node.view().graph().num_nodes());
      edges += static_cast<double>(node.view().graph().num_edges());
    }
    probe_codec_and_replay(set, cfg_.node, checks, out);
    // Sizes of the simulator's own end-of-run views, not the replayed ones.
    out.history_entries_mean = entries / static_cast<double>(n);
    out.view_nodes_mean = nodes / static_cast<double>(n);
    out.view_edges_mean = edges / static_cast<double>(n);
    return out;
  }

  std::string config_json() const override {
    return "\"peers\": 100, \"swarms\": 10, \"sim_seconds\": " +
           json_number(spec_.duration) +
           ", \"policy\": " + json_string(spec_.policy.name()) +
           ", \"population\": " +
           json_string(spec_.population.empty() ? "sharer:0.5,lazy:0.5"
                                                : spec_.population) +
           ", \"backend\": " +
           json_string(std::string(bartercast::backend_name(spec_.backend))) +
           ", \"gossip_interval_s\": " + json_number(spec_.gossip_interval) +
           ", \"nh\": " + std::to_string(cfg_.node.selection.nh) +
           ", \"nr\": " + std::to_string(cfg_.node.selection.nr) +
           ", \"file_mib\": [200, 512], \"requests_per_peer\": [2, 5]" +
           ", \"sub_seeds\": " + std::to_string(kCommunitySubSeeds);
  }

  std::string seed_json() const override {
    return "{\"trace_seed\": " + std::to_string(trace_cfg_.seed) +
           ", \"scenario_seed\": " + std::to_string(cfg_.seed) + "}";
  }

  void release() override { sim_.reset(); }

 private:
  static constexpr std::uint64_t kTraceSeed = 33;  // the fig1 bench's trace
  static constexpr int kSetupSamples = 5;

  CommunitySpec spec_;
  trace::GeneratorConfig trace_cfg_;
  community::ScenarioConfig cfg_;
  std::unique_ptr<community::CommunitySimulator> sim_;
};

class ObserverWorkload final : public Workload {
 public:
  static constexpr std::size_t kPeers = 50000;  // 10x the paper's 5000
  static constexpr std::uint64_t kPopulationSeed = 44;  // the fig4 bench's

  // Like the community trace, the population is the fixed dataset (the
  // paper observed one deployment); --seed drives the observer's own
  // barter partners and transfers.
  explicit ObserverWorkload(std::uint64_t seed) {
    dcfg_.seed = kPopulationSeed;
    dcfg_.num_peers = kPeers;
    ocfg_.seed = seed;
  }

  bool is_community() const override { return false; }

  RepOutcome repeat(Checks& checks) override {
    RepOutcome out;
    population_ = {};
    Stopwatch setup;
    population_ = trace::generate_deployment(dcfg_);
    out.generate_ms = setup.seconds() * 1e3;
    out.setup_s = setup.seconds();
    Stopwatch run;
    const analysis::ObserverResult r = analysis::run_observer(population_, ocfg_);
    out.run_s = run.seconds();
    out.records = r.records_applied;

    Stopwatch post;
    const double neg = r.fraction_negative();
    const double zero = r.fraction_zero();
    const double pos = r.fraction_positive();
    const auto cdf = r.reputation_cdf();
    out.post_run_ms = post.seconds() * 1e3;

    Digest d;
    for (const double x : r.reputations) d.add(x);
    d.add(static_cast<std::uint64_t>(r.messages_logged));
    d.add(static_cast<std::uint64_t>(r.records_applied));
    d.add(static_cast<std::uint64_t>(cdf.size()));
    out.digest = d.hex();

    // Fig. 4b bands (paper: ~40% negative, ~50% around zero, ~10%
    // positive), with the same ordering the fig4 bench gates on.
    checks.expect(neg > pos, "observer-scale: more negative than positive");
    checks.expect(zero > 0.2, "observer-scale: zero band above 20%");
    checks.expect(neg >= 0.2 && neg <= 0.6,
                  "observer-scale: negative band within 20-60%");
    checks.expect(pos > 0.0 && pos <= 0.25,
                  "observer-scale: positive band within 0-25%");
    checks.expect(std::abs(neg + zero + pos - 1.0) < 1e-9,
                  "observer-scale: bands partition the population");
    checks.expect(r.messages_logged > 0 && r.records_applied > 0,
                  "observer-scale: messages were logged and applied");
    return out;
  }

  ProbeResult probe(Checks& checks) override {
    // The observer's node is internal to run_observer, so the probe
    // rebuilds the same inputs from public functions: every peer's private
    // history from the transfer edges, its message, and one probe node —
    // the busiest peer, which holds the largest view — that receives all
    // of them.
    ProbeResult out;
    const std::size_t n = population_.num_peers;
    std::vector<bartercast::PrivateHistory> histories;
    histories.reserve(n);
    for (PeerId i = 0; i < n; ++i) histories.emplace_back(i);
    Seconds t = 0.0;
    for (const auto& e : population_.transfers) {
      histories[e.from].record_upload(e.to, e.amount, t);
      histories[e.to].record_download(e.from, e.amount, t);
      t += 1.0;
    }
    ReplaySet set;
    std::size_t active = 0, busiest = 0;
    double entries = 0.0;
    Stopwatch mk;
    for (PeerId i = 0; i < n; ++i) {
      if (histories[i].size() == 0) continue;
      set.messages.push_back(
          bartercast::build_message(histories[i], ocfg_.sender_selection, t));
    }
    const double mk_s = mk.seconds();
    for (PeerId i = 0; i < n; ++i) {
      if (histories[i].size() == 0) continue;
      ++active;
      entries += static_cast<double>(histories[i].size());
      if (histories[i].size() > histories[busiest].size()) busiest = i;
    }
    checks.expect(active == set.messages.size(),
                  "observer-scale: one message per active peer");
    if (active == 0) return out;
    out.make_message_ns = mk_s * 1e9 / static_cast<double>(active);
    out.history_entries_mean = entries / static_cast<double>(active);
    set.owners.push_back(&histories[busiest]);
    probe_codec_and_replay(set, ocfg_.node, checks, out);
    return out;
  }

  std::string config_json() const override {
    return "\"peers\": " + std::to_string(dcfg_.num_peers) +
           ", \"direct_partners\": " +
           std::to_string(ocfg_.direct_partners) +
           ", \"nh\": " + std::to_string(ocfg_.sender_selection.nh) +
           ", \"nr\": " + std::to_string(ocfg_.sender_selection.nr);
  }

  std::string seed_json() const override {
    return "{\"population_seed\": " + std::to_string(dcfg_.seed) +
           ", \"observer_seed\": " + std::to_string(ocfg_.seed) + "}";
  }

  void release() override { population_ = {}; }

 private:
  trace::DeploymentConfig dcfg_;
  analysis::ObserverConfig ocfg_;
  trace::DeploymentPopulation population_;
};

/// One workload instance per sub-seed, with its repetitions.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::string reference;  // digest of the first repetition
  std::vector<RepOutcome> plain;
  std::vector<RepOutcome> traced;
};

/// Sub-seeds of `seed` are seed*k .. seed*k+k-1: disjoint across seeds.
std::vector<Instance> make_instances(const std::string& name,
                                     std::uint64_t seed) {
  CommunitySpec spec;
  spec.name = name;
  spec.duration = 12.0 * kHour;
  if (name == "adversary-gossip") {
    spec.policy = bartercast::ReputationPolicy::ban(-0.5);
    spec.population = "sharer:0.5,lazy-freerider:0.25,slanderer:0.25";
    spec.backend = bartercast::BackendKind::kDifferentialGossip;
    spec.inverted_gap = true;
  } else if (name == "swarm-heavy") {
    spec.gossip_interval = 30.0 * kMinute;
  } else if (name != "fig1-community") {
    std::vector<Instance> out;
    if (name == "observer-scale") {
      out.push_back({std::make_unique<ObserverWorkload>(seed), {}, {}, {}});
    }
    return out;
  }
  std::vector<Instance> out;
  for (std::uint64_t i = 0; i < kCommunitySubSeeds; ++i) {
    out.push_back({std::make_unique<CommunityWorkload>(
                       spec, seed * kCommunitySubSeeds + i),
                   {}, {}, {}});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Measurement loop and output
// ---------------------------------------------------------------------------

/// Per-layer figures of one traced repetition.
using LayerSample = std::map<std::string, double>;

LayerSample sample_layers() {
  LayerSample s;
  for (const auto& site : obs::Profiler::instance().snapshot()) {
    s[site.name + ".calls"] = static_cast<double>(site.calls);
    s[site.name + ".ms"] = static_cast<double>(site.nanos) * 1e-6;
  }
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  for (const auto& [name, v] : snap.counters) {
    s[name] = static_cast<double>(v);
  }
  for (const auto& h : snap.log_histograms) {
    s[h.name + ".sum"] = h.sum;
  }
  return s;
}

double get(const LayerSample& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? 0.0 : it->second;
}

/// One repetition of `inst`, digest-checked against its first. A traced
/// repetition zeroes the instruments before and samples them after; an
/// untraced one releases the instance's state when `release` is set.
void repeat_once(Instance& inst, bool traced, bool release, Checks& checks,
                 std::vector<LayerSample>& samples) {
  obs::Profiler& profiler = obs::Profiler::instance();
  if (traced) {
    obs::Registry::instance().reset_values();
    profiler.reset_values();
    profiler.set_enabled(true);
  }
  RepOutcome r = inst.workload->repeat(checks);
  if (traced) {
    profiler.set_enabled(false);
    samples.push_back(sample_layers());
  } else if (release) {
    inst.workload->release();
  }
  if (inst.reference.empty()) {
    inst.reference = r.digest;
  } else {
    checks.expect(r.digest == inst.reference,
                  "digest " + r.digest + " != " + inst.reference +
                      " on a repetition of the same seed");
  }
  (traced ? inst.traced : inst.plain).push_back(std::move(r));
}

/// Runs whole cycles over the instances while the next cycle is expected
/// to fit in `budget_s`, and at least `min_cycles`. Untraced cycles run
/// each instance once and release its state, so peak RSS covers one
/// instance at a time. Traced cycles run each instance untraced and then
/// traced, back to back, so the overhead compares neighbouring runs; the
/// traced run's state is kept for the probe. Returns the process's peak
/// RSS (MB) after the first cycle: later cycles only add allocator
/// fragmentation, which grows with the number of cycles the budget allows
/// on a given host, not with the workload.
double measure(std::vector<Instance>& instances, double budget_s,
               std::size_t min_cycles, bool traced, Checks& checks,
               std::vector<LayerSample>& samples) {
  double first_cycle_peak_mb = 0.0;
  Stopwatch total;
  for (std::size_t cycle = 0;; ++cycle) {
    const double elapsed = total.seconds();
    if (cycle >= min_cycles &&
        elapsed + elapsed / static_cast<double>(cycle) > budget_s) {
      break;
    }
    for (Instance& inst : instances) {
      repeat_once(inst, false, !traced, checks, samples);
      if (traced) repeat_once(inst, true, false, checks, samples);
    }
    if (cycle == 0) first_cycle_peak_mb = peak_rss_mb();
  }
  return first_cycle_peak_mb;
}

double median_of(const std::vector<RepOutcome>& reps,
                 double RepOutcome::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.*field);
  return median(v);
}

/// Cost of one pass over the sub-seeds: the mean over instances of each
/// instance's median.
double mean_of_medians(const std::vector<Instance>& instances, bool traced,
                       double RepOutcome::*field) {
  double sum = 0.0;
  for (const Instance& inst : instances) {
    sum += median_of(traced ? inst.traced : inst.plain, field);
  }
  return sum / static_cast<double>(instances.size());
}

/// Mean of a per-repetition count over instances (each instance's count
/// is the same on every repetition, the digest check guarantees it).
double mean_count(const std::vector<Instance>& instances,
                  std::uint64_t RepOutcome::*field) {
  double sum = 0.0;
  for (const Instance& inst : instances) {
    const auto& reps = inst.plain.empty() ? inst.traced : inst.plain;
    sum += static_cast<double>(reps.front().*field);
  }
  return sum / static_cast<double>(instances.size());
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(name) + ": {\"value\": " + json_number(value) +
             ", \"unit\": " + json_string(unit) + "}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "workloads: fig1-community adversary-gossip swarm-heavy "
               "observer-scale\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      return usage();
    }
  }
  std::vector<Instance> instances = make_instances(workload_name, seed);
  if (instances.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  obs::Profiler::instance().set_enabled(false);

  Checks checks;
  MetricsJson metrics;
  std::string attribution = "{}";
  std::vector<LayerSample> samples;

  if (trace == 0) {
    const double peak_mb =
        measure(instances, seconds, 2, false, checks, samples);
    const double run_s = mean_of_medians(instances, false, &RepOutcome::run_s);
    std::vector<double> setups;
    for (const Instance& inst : instances) {
      for (const RepOutcome& r : inst.plain) setups.push_back(r.setup_s);
    }
    metrics.add("run_s", run_s, "s");
    metrics.add("setup_s", median(setups), "s");
    metrics.add("peak_rss_mb", peak_mb, "MB");
    metrics.add("records_per_s",
                mean_count(instances, &RepOutcome::records) / run_s, "1/s");
  } else {
    // Untraced and traced repetitions alternate; the probe reads the
    // first instance's final (traced) state.
    measure(instances, seconds, 1, true, checks, samples);
    const ProbeResult probe = instances.front().workload->probe(checks);

    // Per-layer figures are means over the traced repetitions, i.e. per
    // run of one community (or one observer pass).
    const auto layer = [&](const std::string& key) {
      double sum = 0.0;
      for (const auto& smp : samples) sum += get(smp, key);
      return sum / static_cast<double>(samples.size());
    };
    const double plain_run_s =
        mean_of_medians(instances, false, &RepOutcome::run_s);
    const double traced_run_s =
        mean_of_medians(instances, true, &RepOutcome::run_s);
    const bool community = instances.front().workload->is_community();
    const double events = mean_count(instances, &RepOutcome::events);
    const double sent = mean_count(instances, &RepOutcome::net_sent);
    const double delivered = mean_count(instances, &RepOutcome::net_delivered);
    const double dropped = mean_count(instances, &RepOutcome::net_dropped);

    metrics.add("sim.events", events, "count");
    metrics.add("sim.events_per_s", events / plain_run_s, "1/s");
    // Self time where the nesting is fixed by the code: overlay delivery
    // is its own engine event, so round, gossip_tick, on_barter_message
    // and reputation_probe are disjoint children of sim.dispatch, and
    // choke_swarm is called only from round.
    metrics.add("sim.dispatch_self_ms",
                layer("sim.dispatch.ms") - layer("community.round.ms") -
                    layer("community.gossip_tick.ms") -
                    layer("community.on_barter_message.ms") -
                    layer("community.reputation_probe.ms"),
                "ms");
    metrics.add("net.sent", sent, "count");
    metrics.add("net.delivered", delivered, "count");
    metrics.add("net.dropped", dropped, "count");
    metrics.add("gossip.exchange.calls", layer("gossip.exchange.calls"),
                "count");
    metrics.add("gossip.exchange.ms", layer("gossip.exchange.ms"), "ms");
    for (const char* site :
         {"community.gossip_tick", "community.on_barter_message",
          "community.round", "community.choke_swarm",
          "community.reputation_probe", "choker.pick_regular",
          "choker.optimistic_pick"}) {
      metrics.add(std::string(site) + ".ms", layer(std::string(site) + ".ms"),
                  "ms");
    }
    metrics.add("community.round_self_ms",
                layer("community.round.ms") - layer("community.choke_swarm.ms"),
                "ms");
    metrics.add("community.rounds", layer("community.rounds"), "count");
    metrics.add("community.bytes_transferred",
                layer("community.bytes_transferred"), "bytes");
    for (const char* c :
         {"barter.messages_received", "barter.records_applied",
          "barter.dropped_third_party", "barter.dropped_own_edge",
          "barter.dropped_self_report", "reputation.evaluations",
          "reputation.cache_hits", "reputation.cache_misses"}) {
      metrics.add(c, layer(c), "count");
    }
    const double offered = layer("barter.message_records.sum");
    metrics.add("barter.apply_ratio",
                offered > 0.0 ? layer("barter.records_applied") / offered : 0.0,
                "ratio");
    const double lookups =
        layer("reputation.cache_hits") + layer("reputation.cache_misses");
    metrics.add("reputation.cache_hit_ratio",
                lookups > 0.0 ? layer("reputation.cache_hits") / lookups : 0.0,
                "ratio");
    metrics.add("reputation.gossip_sweep.calls",
                layer("reputation.gossip_sweep.calls"), "count");
    metrics.add("reputation.gossip_sweep.ms",
                layer("reputation.gossip_sweep.ms"), "ms");
    metrics.add("bartercast.make_message_ns", probe.make_message_ns, "ns");
    metrics.add("bartercast.receive_message_ns", probe.receive_message_ns,
                "ns");
    metrics.add("bartercast.codec_encode_ns", probe.encode_ns, "ns");
    metrics.add("bartercast.codec_decode_ns", probe.decode_ns, "ns");
    metrics.add("history.entries_mean", probe.history_entries_mean, "count");
    metrics.add("maxflow.two_hop.calls", layer("maxflow.two_hop.calls"),
                "count");
    metrics.add("maxflow.two_hop.ms", layer("maxflow.two_hop.ms"), "ms");
    metrics.add("graph.view_nodes_mean", probe.view_nodes_mean, "count");
    metrics.add("graph.view_edges_mean", probe.view_edges_mean, "count");
    metrics.add("graph.reputation_cold_ns", probe.reputation_cold_ns, "ns");
    metrics.add("graph.reputation_warm_ns", probe.reputation_warm_ns, "ns");
    const double generate_ms =
        mean_of_medians(instances, true, &RepOutcome::generate_ms);
    metrics.add("trace.generate_ms", community ? generate_ms : 0.0, "ms");
    metrics.add("trace.generate_deployment_ms", community ? 0.0 : generate_ms,
                "ms");
    metrics.add("analysis.run_observer_ms",
                community ? 0.0 : traced_run_s * 1e3, "ms");
    metrics.add("analysis.post_run_ms",
                mean_of_medians(instances, true, &RepOutcome::post_run_ms),
                "ms");
    metrics.add("obs.trace_overhead_pct",
                (traced_run_s / plain_run_s - 1.0) * 100.0, "%");
    metrics.add("check_fail_ratio",
                static_cast<double>(checks.failed) /
                    static_cast<double>(checks.run),
                "ratio");
    attribution =
        "{\"inclusive_ms\": [\"gossip.exchange.ms\", "
        "\"community.gossip_tick.ms\", \"community.on_barter_message.ms\", "
        "\"community.round.ms\", \"community.choke_swarm.ms\", "
        "\"community.reputation_probe.ms\", \"choker.pick_regular.ms\", "
        "\"choker.optimistic_pick.ms\", \"reputation.gossip_sweep.ms\", "
        "\"maxflow.two_hop.ms\"], "
        "\"self_ms\": {\"sim.dispatch_self_ms\": \"sim.dispatch - "
        "(community.round + community.gossip_tick + "
        "community.on_barter_message + community.reputation_probe)\", "
        "\"community.round_self_ms\": \"community.round - "
        "community.choke_swarm\"}, "
        "\"traced_reps\": " + std::to_string(samples.size()) +
        ", \"untraced_run_s\": " + json_number(plain_run_s) +
        ", \"traced_run_s\": " + json_number(traced_run_s) + "}";
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + json_string(checks.failures[i]);
  }
  failures += "]";
  std::string seeds, digests, config;
  for (const Instance& inst : instances) {
    const char* sep = seeds.empty() ? "" : ", ";
    seeds += sep + inst.workload->seed_json();
    digests += sep + json_string(inst.reference);
  }
  const std::string manifest =
      "{\"workload\": " + json_string(workload_name) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"budget_s\": " + json_number(seconds) +
      ", \"config\": {" + instances.front().workload->config_json() + "}" +
      ", \"instances\": [" + seeds + "]" +
      ", \"digests\": [" + digests + "]" +
      ", \"threads\": 1" +
      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
  // Every repetition's timed phase, per instance: the spread behind the
  // medians.
  std::string samples_json = "[";
  for (const Instance& inst : instances) {
    std::string row;
    for (const auto* reps : {&inst.plain, &inst.traced}) {
      for (const RepOutcome& r : *reps) {
        row += (row.empty() ? "" : ", ") + json_number(r.run_s);
      }
    }
    samples_json += (samples_json.size() > 1 ? ", [" : "[") + row + "]";
  }
  samples_json += "]";
  std::printf(
      "{\"result\": {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}, \"manifest\": %s, \"attribution\": %s, "
      "\"run_s_samples\": %s, \"failures\": %s}\n",
      checks.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(checks.run),
      static_cast<unsigned long long>(checks.failed), metrics.str().c_str(),
      manifest.c_str(), attribution.c_str(), samples_json.c_str(),
      failures.c_str());
  return 0;
}
