// ctile end-to-end benchmark program.
//
//   ctile_perfbench --workload paper-cold|autotune --seed N
//                   --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload through the public pipeline — CompiledPlan lowering,
// verify::verify_executor, ParallelExecutor::run (write-back included),
// PlanCache and autotune_tile_shape — checks every output against
// run_sequential bitwise, and prints the metrics as the last stdout line
// (one JSON object).  --trace 0 reports the end-to-end metrics from
// untraced passes; --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics of the traced ones, the tracing overhead
// and a span reconciliation, and writes the spans as Chrome trace-event
// JSON.  perfbench/METRICS.md defines every metric and the layer ->
// end-to-end predictions.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "bench_util.hpp"
#include "cluster/shape_search.hpp"
#include "mpisim/mpisim.hpp"
#include "runtime/compiled_plan.hpp"
#include "runtime/parallel_executor.hpp"
#include "runtime/plan_cache.hpp"
#include "verify/gate.hpp"

using namespace ctile;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread, exited ones included).
/// The kernel leaves out time the host gave to other work, so on a shared
/// host this is far steadier than wall time.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time of one timed region.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();
  double wall_s() const { return seconds_since(wall0); }
  double cpu_s() const { return cpu_seconds() - cpu0; }
};

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace-event JSON at
// exit.  A disabled tracer records nothing; a span then costs a branch.

struct Span {
  std::string name;
  double start_s = 0.0;  // since the tracer's epoch
  double end_s = 0.0;
  int parent = -1;       // index into spans, -1 for an op root
  i64 op = -1;           // shared by the spans of one op
};

class Tracer {
 public:
  bool on = false;

  int open(const std::string& name) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.start_s = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }
  /// Start a new op: later spans carry its id.
  void next_op() { ++op_; }
  const std::vector<Span>& spans() const { return spans_; }

  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"op\":%lld,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   s.name.substr(0, s.name.find('.')).c_str(),
                   s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                   static_cast<long long>(s.op), s.parent);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  i64 op_ = -1;
};

class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------
// Pinned runtime settings.  The library reads these variables for its
// defaults; the benchmark clears them and sets every value in code, so
// the runner's environment cannot change a workload.

constexpr const char* kEnvKnobs[] = {
    "CTILE_MPISIM_BACKEND", "CTILE_EXEC_POLICY",   "CTILE_MEM_BACKEND",
    "CTILE_SHAPE_THREADS",  "CTILE_SHAPE_BUDGET",  "CTILE_POOL_THREADS"};
constexpr exec::Policy kPolicy = exec::Policy::kSimd;
constexpr int kShapeThreads = 1;
constexpr int kShapeBudget = 512;

void pin(ParallelExecutor& ex, mpisim::Backend backend, u64 seed) {
  ex.set_comm_backend(backend, seed);
  ex.set_exec_policy(kPolicy);
  ex.set_memory_backend(&exec::aligned_backend());
}

const char* backend_name(mpisim::Backend b) {
  switch (mpisim::resolve_backend(b)) {
    case mpisim::Backend::kThread: return "thread";
    case mpisim::Backend::kEvent: return "event";
    case mpisim::Backend::kAuto: break;
  }
  return "auto";
}

// ---------------------------------------------------------------------
// Paper-size configurations.

struct Config {
  std::string name;
  int app = 0;  // index into Suite::apps (and the oracles)
  MatQ h;
  int force_m = -1;
  int procs = 0;  // expected mesh size
};

struct Suite {
  std::vector<AppInstance> apps;
  std::vector<Config> configs;
};

// Fig. 6/8/10 captions on each figure's fitted 4x4 mesh.
Suite paper_cold_suite() {
  Suite s;
  const i64 m = 100, n = 200;
  s.apps.push_back(make_sor(m, n));
  const i64 sx = bench::fit_parts(1, m, 4), sy = bench::fit_parts(2, m + n, 4);
  s.configs.push_back({"sor_nonrect_z8", 0, sor_nonrect_h(sx, sy, 8), 2, 16});
  s.configs.push_back({"sor_rect_z2", 0, sor_rect_h(sx, sy, 2), 2, 16});
  const i64 t = 50, ij = 100;
  s.apps.push_back(make_jacobi(t, ij, ij));
  i64 jy = bench::fit_parts(2, t + ij, 4);
  if (jy % 2 != 0) ++jy;  // c_2 = 2 must divide v_2
  const i64 jz = bench::fit_parts(2, t + ij, 4);
  s.configs.push_back(
      {"jacobi_nonrect_x5", 1, jacobi_nonrect_h(5, jy, jz), 0, 16});
  const i64 at = 100, an = 256;
  s.apps.push_back(make_adi(at, an));
  const i64 ay = bench::fit_parts(1, an, 4);
  s.configs.push_back({"adi_nr3_x10", 2, adi_nr3_h(10, ay, ay), 0, 16});
  return s;
}

// ---------------------------------------------------------------------
// Per-op results and checks.

// Exact fast-path reach of one plan: nonempty tiles, points, and the
// interior subset (the tiles the fast row path sweeps).
struct Reach {
  i64 tiles = 0, points = 0, interior_tiles = 0, interior_points = 0;
};

std::string counts_of(const Reach& r, const ParallelRunStats& st) {
  return "tiles=" + std::to_string(r.tiles) +
         " points=" + std::to_string(r.points) +
         " interior_tiles=" + std::to_string(r.interior_tiles) +
         " interior_points=" + std::to_string(r.interior_points) +
         " messages=" + std::to_string(st.messages) +
         " doubles=" + std::to_string(st.doubles);
}

Reach reach_of(const CompiledPlan& plan) {
  Reach r;
  const TileCensus& census = plan.census();
  if (census.total() == 0) return r;
  const TileCensus::Bounds& b = census.nonempty_bounds();
  VecI js = b.lo;
  const std::size_t n = js.size();
  for (;;) {
    const i64 c = census.count(js);
    if (c > 0) {
      ++r.tiles;
      r.points += c;
      if (plan.classifier().interior(js)) {
        ++r.interior_tiles;
        r.interior_points += c;
      }
    }
    std::size_t k = n;
    while (k > 0) {
      --k;
      if (js[k] < b.hi[k]) {
        ++js[k];
        break;
      }
      js[k] = b.lo[k];
      if (k == 0) return r;
    }
  }
}

i64 lds_bytes(const CompiledPlan& plan, int arity) {
  const Mapping& mapping = plan.mapping();
  i64 slots = 0;
  for (int rank = 0; rank < mapping.num_procs(); ++rank) {
    const IntRange w = mapping.chain_window(mapping.pid_of(rank));
    if (!w.empty()) slots += plan.local_for(w.count()).layout.size();
  }
  return slots * arity * static_cast<i64>(sizeof(double));
}

bool bitwise_equal(const DataSpace& a, const DataSpace& b) {
  return a.arity() == b.arity() && a.points() == b.points() &&
         std::memcmp(a.at_offset(0), b.at_offset(0),
                     static_cast<std::size_t>(a.points() * a.arity()) *
                         sizeof(double)) == 0;
}

// Busy time of the ranks that covers a run's wall span: the event
// backend's fibers share one thread, so their phases add up.
double rank_busy_s(const ParallelRunStats& st) {
  return st.phase_total.compute_s + st.phase_total.pack_s +
         st.phase_total.unpack_s;
}

using Layers = std::map<std::string, double>;

double layer_value(const Layers& L, const std::string& k) {
  auto it = L.find(k);
  return it == L.end() ? 0.0 : it->second;
}

struct OpTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double points = 0.0;
};

struct PassResult {
  double pass_wall_s = 0.0;  // the whole pass, checks included
  double wall_s = 0.0;  // the timed part of the pass (excludes checks)
  double cpu_s = 0.0;   // process CPU time of the timed part
  double points = 0.0;  // iteration points the pass delivers
  /// Per config: timed wall and CPU seconds and iteration points of its op.
  std::map<std::string, OpTime> ops;
  int attempted = 0;
  int failed = 0;
  Layers layers;

  void add_op(const std::string& cfg, double wall, double cpu, double pts) {
    wall_s += wall;
    cpu_s += cpu;
    points += pts;
    ops[cfg] = {wall, cpu, pts};
  }
};

void add_run_layers(Layers& L, const ParallelRunStats& st, double run_s) {
  L["runtime.run_s"] += run_s;
  L["runtime.compute_s"] += st.phase_total.compute_s;
  L["runtime.pack_s"] += st.phase_total.pack_s;
  L["runtime.unpack_s"] += st.phase_total.unpack_s;
  L["runtime.unattributed_s"] += run_s - rank_busy_s(st);
  L["mpisim.recv_wait_s"] += st.phase_total.recv_wait_s;
  L["mpisim.send_wait_s"] += st.phase_total.send_wait_s;
  L["mpisim.messages"] += static_cast<double>(st.messages);
  L["mpisim.doubles"] += static_cast<double>(st.doubles);
}

void add_reach_layers(Layers& L, const Reach& r) {
  L["tiling.tiles"] += static_cast<double>(r.tiles);
  L["tiling.points"] += static_cast<double>(r.points);
  L["tiling.interior_tiles"] += static_cast<double>(r.interior_tiles);
  L["tiling.interior_points"] += static_cast<double>(r.interior_points);
}

void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED op: %s\n", what.c_str());
}

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and oracles (timed as one set-up).
  virtual void setup() = 0;
  /// One pass over every config, in a seed-shuffled order.
  virtual PassResult pass(u64 pass_seed, Tracer& tracer) = 0;
  /// Untraced passes per run, even past --seconds, so each config's
  /// median rejects a noisy op.
  virtual std::size_t min_passes() const { return 3; }
  /// Set-up-scoped per-layer values of the last set-up.
  Layers setup_layers;
  /// Exact per-config counts of the first pass, checked on every later
  /// pass (other interleaving seeds must give identical counts).
  std::map<std::string, std::string> counts;

 protected:
  bool counts_repeat(const std::string& cfg, const std::string& c) {
    auto [it, fresh] = counts.emplace(cfg, c);
    return fresh || it->second == c;
  }
};

std::vector<std::size_t> shuffled(std::size_t n, u64 seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    seed = splitmix64(seed);
    std::swap(order[i - 1], order[seed % i]);
  }
  return order;
}

std::vector<DataSpace> run_oracles(const Suite& s, Layers& L) {
  std::vector<DataSpace> out;
  for (const AppInstance& app : s.apps) {
    const auto t0 = Clock::now();
    out.push_back(run_sequential(app.nest.space, app.nest.deps, *app.kernel));
    L["oracle.run_sequential_s"] += seconds_since(t0);
  }
  return out;
}

class PaperCold final : public Workload {
 public:
  // A pass takes ~17 s on a 4-core Xeon VM; two keep a run near a minute.
  std::size_t min_passes() const override { return 2; }

  void setup() override {
    setup_layers.clear();
    oracles_.clear();
    suite_ = paper_cold_suite();
    oracles_ = run_oracles(suite_, setup_layers);
  }

  PassResult pass(u64 pass_seed, Tracer& tracer) override {
    PassResult r;
    Layers& L = r.layers;
    for (std::size_t i : shuffled(suite_.configs.size(), pass_seed)) {
      const Config& cfg = suite_.configs[i];
      const AppInstance& app = suite_.apps[static_cast<std::size_t>(cfg.app)];
      tracer.next_op();
      Scoped op_span(tracer, "op." + cfg.name);
      ++r.attempted;
      try {
        LoweringKnobs knobs;
        knobs.force_m = cfg.force_m;
        Stopwatch sw;
        std::shared_ptr<const CompiledPlan> plan;
        {
          Scoped span(tracer, "runtime.lower");
          plan = CompiledPlan::compile_parallel(app.nest, cfg.h, knobs);
        }
        const double lower_s = sw.wall_s();
        double cpu_s = sw.cpu_s();
        ParallelExecutor ex(plan, *app.kernel);
        pin(ex, mpisim::Backend::kEvent, splitmix64(pass_seed + i));
        sw = Stopwatch();
        verify::VerifyReport report;
        {
          Scoped span(tracer, "verify.verify");
          report = verify::verify_executor(ex);
        }
        const double verify_s = sw.wall_s();
        cpu_s += sw.cpu_s();
        ParallelRunStats st;
        sw = Stopwatch();
        std::optional<DataSpace> ds;
        {
          Scoped span(tracer, "runtime.run");
          ds.emplace(ex.run(&st));
        }
        const double run_s = sw.wall_s();
        cpu_s += sw.cpu_s();

        Scoped span(tracer, "bench.check");
        const Reach reach = reach_of(*plan);
        const PlanPhaseTimes& ph = plan->phase_times();
        L["runtime.lower_s"] += lower_s;
        L["tiling.tile_space_s"] += ph.tile_space_s;
        L["tiling.census_s"] += ph.census_s;
        L["runtime.comm_plan_s"] += ph.comm_plan_s;
        L["runtime.locals_s"] += ph.locals_s;
        L["runtime.lds_bytes"] +=
            static_cast<double>(lds_bytes(*plan, app.kernel->arity()));
        L["verify.verify_s"] += verify_s;
        L["verify.errors"] +=
            static_cast<double>(report.count(verify::Severity::kError));
        L["verify.warnings"] +=
            static_cast<double>(report.count(verify::Severity::kWarning));
        add_run_layers(L, st, run_s);
        add_reach_layers(L, reach);
        r.add_op(cfg.name, lower_s + verify_s + run_s, cpu_s,
                 static_cast<double>(reach.points));

        std::string bad;
        if (!report.ok()) bad = "verify_executor reported errors";
        if (plan->mapping().num_procs() != cfg.procs) bad = "mesh size";
        if (st.points_computed != reach.points) bad = "points computed";
        if (!bitwise_equal(*ds, oracles_[static_cast<std::size_t>(cfg.app)])) {
          bad = "data space differs from run_sequential";
        }
        if (!counts_repeat(cfg.name, counts_of(reach, st))) {
          bad = "counts changed across seeds";
        }
        if (!bad.empty()) {
          ++r.failed;
          fail(cfg.name + ": " + bad);
        }
      } catch (const std::exception& e) {
        ++r.failed;
        fail(cfg.name + ": " + e.what());
      }
    }
    return r;
  }

 private:
  Suite suite_;
  std::vector<DataSpace> oracles_;
};

// The shape searches of the micro_shape_search bench: SOR M=32 N=64 and
// ADI T=32 N=48 on a fitted 4x4 mesh, rectangular baselines riding along.
struct SearchCase {
  std::string name;
  AppInstance app;
  ShapeSearchRequest req;
  VecI expect_chain_dir;  // empty: the winner must be a surface shape
  double points = 0.0;
};

class Autotune final : public Workload {
 public:
  void setup() override {
    setup_layers.clear();
    cases_.clear();
    {
      SearchCase c;
      const i64 m = 32, n = 64;
      c.name = "sor_32x64";
      c.app = make_sor(m, n);
      c.req.force_m = 2;
      c.req.arity = 1;
      c.req.mesh_extent = 4;
      c.req.chain_factors = {4, 8, 16};
      c.req.orig_lo = {1, 1, 1};
      c.req.orig_hi = {m, n, n};
      c.req.skew = sor_skew_matrix();
      for (i64 z : c.req.chain_factors) {
        c.req.extra.push_back(sor_rect_h(8, 24, z));
        // A 1x1-mesh baseline the comm bound must prune unlowered.
        c.req.extra.push_back(sor_rect_h(64, 192, z));
      }
      cases_.push_back(std::move(c));
    }
    {
      SearchCase c;
      const i64 t = 32, n = 48;
      c.name = "adi_32x48";
      c.app = make_adi(t, n);
      c.req.force_m = 0;
      c.req.arity = 2;
      c.req.mesh_extent = 4;
      c.req.chain_factors = {2, 4, 8};
      c.req.orig_lo = {1, 1, 1};
      c.req.orig_hi = {t, n, n};
      c.req.skew = MatI::identity(3);
      for (i64 z : c.req.chain_factors) c.req.extra.push_back(adi_rect_h(z, 12, 12));
      c.expect_chain_dir = {1, -1, -1};
      cases_.push_back(std::move(c));
    }
    for (SearchCase& c : cases_) {
      c.req.scorer = ShapeScorer::kEventDes;
      c.req.prune = true;
      c.req.threads = kShapeThreads;
      c.req.budget = kShapeBudget;
      c.points = static_cast<double>(c.app.nest.space.count_points());
    }
    // A warm-up search per case fills the heap before the first timed
    // pass, as paper-cold's oracles do, and makes a set-up seconds long:
    // a millisecond set-up reads the host's momentary speed, which on a
    // shared host swings by ~2x within a minute.
    for (const SearchCase& c : cases_) {
      PlanCache cache;
      ScoreMemo memo;
      ShapeSearchRequest req = c.req;
      req.cache = &cache;
      req.memo = &memo;
      (void)autotune_tile_shape(c.app.nest, req,
                                MachineModel::fast_ethernet_cluster());
    }
  }

  PassResult pass(u64 pass_seed, Tracer& tracer) override {
    PassResult r;
    Layers& L = r.layers;
    const MachineModel machine = MachineModel::fast_ethernet_cluster();
    for (std::size_t i : shuffled(cases_.size(), pass_seed)) {
      SearchCase& c = cases_[i];
      tracer.next_op();
      Scoped op_span(tracer, "op." + c.name);
      ++r.attempted;
      try {
        PlanCache cache;
        ScoreMemo memo;
        ShapeSearchRequest req = c.req;
        req.cache = &cache;
        req.memo = &memo;
        req.seed = splitmix64(pass_seed + i);
        const Stopwatch sw;
        ShapeSearchResult res;
        {
          Scoped span(tracer, "cluster.search");
          res = autotune_tile_shape(c.app.nest, req, machine);
        }
        const double search_s = sw.wall_s();
        const double cpu_s = sw.cpu_s();

        Scoped span(tracer, "bench.check");
        const PlanCache::Stats cs = cache.stats();
        r.add_op(c.name, search_s, cpu_s, c.points);
        L["cluster.search_s"] += search_s;
        L["cluster.search.gen_s"] += res.gen_s;
        L["cluster.search.bound_s"] += res.bound_s;
        L["cluster.search.eval_s"] += res.eval_s;
        L["cluster.search.des_s"] += res.eval_s - cs.lowering_s;
        L["cluster.search.evaluated"] += static_cast<double>(res.evaluated);
        L["cluster.search.pruned"] += static_cast<double>(res.pruned);
        L["cluster.search.invalid"] += static_cast<double>(res.invalid);
        L["runtime.plan_cache.hits"] += static_cast<double>(cs.hits);
        L["runtime.plan_cache.misses"] += static_cast<double>(cs.misses);
        L["runtime.plan_cache.lowering_s"] += cs.lowering_s;
        L["tiling.census_s"] += cs.phase_total.census_s;
        L["tiling.tile_space_s"] += cs.phase_total.tile_space_s;
        L["runtime.comm_plan_s"] += cs.phase_total.comm_plan_s;
        L["runtime.locals_s"] += cs.phase_total.locals_s;

        const ShapeScore& best = res.best();
        std::string bad;
        if (c.expect_chain_dir.empty() ? best.origin != "surface"
                                       : best.chain_dir != c.expect_chain_dir) {
          bad = "unexpected winner " + best.plan_id + " (" + best.origin + ")";
        }
        // The winner and the search's counts are seed-invariant.
        char score[32];
        std::snprintf(score, sizeof score, "%a", best.score_s);
        const std::string fp = "winner=" + best.plan_id + " score=" + score +
                               " evaluated=" + std::to_string(res.evaluated) +
                               " pruned=" + std::to_string(res.pruned) +
                               " invalid=" + std::to_string(res.invalid);
        if (!counts_repeat(c.name, fp)) bad = "search changed across seeds";
        if (!bad.empty()) {
          ++r.failed;
          fail(c.name + ": " + bad);
        }
      } catch (const std::exception& e) {
        ++r.failed;
        fail(c.name + ": " + e.what());
      }
    }
    return r;
  }

 private:
  std::vector<SearchCase> cases_;
};

// 2-rank thread-backend ping-pong through mpisim::run_ranks: the
// per-message cost of the substrate at a given payload size.
double roundtrip_us(std::size_t doubles) {
  constexpr int kRounds = 2000;
  mpisim::CommConfig cfg;
  cfg.backend = mpisim::Backend::kThread;
  const auto t0 = Clock::now();
  mpisim::run_ranks(
      2,
      [&](int rank, mpisim::Comm& comm) {
        std::vector<double> buf(doubles, 1.0);
        for (int k = 0; k < kRounds; ++k) {
          if (rank == 0) {
            comm.send(0, 1, k, buf);
            buf = comm.recv(0, 1, k);
          } else {
            buf = comm.recv(1, 0, k);
            comm.send(1, 0, k, buf);
          }
        }
      },
      cfg);
  return seconds_since(t0) * 1e6 / kRounds;
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else throw Error("unknown argument " + k);
  }
  if (a.seconds <= 0.0) throw Error("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper-cold") return std::make_unique<PaperCold>();
  if (name == "autotune") return std::make_unique<Autotune>();
  throw Error("unknown workload '" + name + "'");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Set-ups per run; the median of their CPU times is reported.  Each takes
// seconds, so three keep a run within its time budget.
constexpr std::size_t kSetups = 3;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %16s  %s\n", "metric (JSON)", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Every per-layer metric of a traced run, in output order; a layer the
// workload does not exercise reports 0.  Must match BENCHMARK.json.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"tiling.census_s", "s"},
    {"tiling.tile_space_s", "s"},
    {"tiling.tiles", "count"},
    {"tiling.points", "count"},
    {"tiling.interior_tiles", "count"},
    {"tiling.interior_point_share", "ratio"},
    {"runtime.lower_s", "s"},
    {"runtime.comm_plan_s", "s"},
    {"runtime.locals_s", "s"},
    {"runtime.lds_bytes", "bytes"},
    {"verify.verify_s", "s"},
    {"verify.errors", "count"},
    {"verify.warnings", "count"},
    {"runtime.run_s", "s"},
    {"runtime.compute_s", "s"},
    {"runtime.compute_ns_per_point", "ns"},
    {"runtime.pack_s", "s"},
    {"runtime.unpack_s", "s"},
    {"runtime.unattributed_s", "s"},
    {"mpisim.recv_wait_s", "s"},
    {"mpisim.send_wait_s", "s"},
    {"mpisim.messages", "count"},
    {"mpisim.doubles", "count"},
    {"mpisim.roundtrip_us", "us"},
    {"runtime.plan_cache.hits", "count"},
    {"runtime.plan_cache.misses", "count"},
    {"runtime.plan_cache.lowering_s", "s"},
    {"cluster.search_s", "s"},
    {"cluster.search.gen_s", "s"},
    {"cluster.search.bound_s", "s"},
    {"cluster.search.eval_s", "s"},
    {"cluster.search.des_s", "s"},
    {"cluster.search.evaluated", "count"},
    {"cluster.search.pruned", "count"},
    {"cluster.search.invalid", "count"},
    {"cluster.search.prune_rate", "ratio"},
    {"oracle.run_sequential_s", "s"},
    {"trace.self.runtime_s", "s"},
    {"trace.self.verify_s", "s"},
    {"trace.self.cluster_s", "s"},
    {"trace.self.bench_s", "s"},
    {"trace.self.unspanned_s", "s"},
    {"trace.span_coverage", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_pct", "%"},
};

int run(const Args& args) {
  for (const char* k : kEnvKnobs) unsetenv(k);
  std::unique_ptr<Workload> w = make_workload(args.workload);
  Tracer tracer;

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("settings: comm_backend=%s exec_policy=%s mem_backend=%s "
              "shape_threads=%d shape_budget=%d shape_seed=per-pass "
              "(splitmix64 of --seed)\n",
              backend_name(mpisim::Backend::kEvent),
              exec::policy_name(kPolicy), exec::aligned_backend().name(),
              kShapeThreads, kShapeBudget);

  // ---- Set-up runs before each of the first kSetups passes (and after
  // the last pass if fewer passes ran), so its samples spread over the
  // run; each pass uses the state of the latest set-up.
  std::vector<double> setup_s, setup_wall_s;
  const auto setup = [&] {
    const Stopwatch sw;
    w->setup();
    setup_wall_s.push_back(sw.wall_s());
    setup_s.push_back(sw.cpu_s());
  };

  // ---- Measured passes.  With tracing, untraced and traced passes
  // alternate so the overhead is taken under the same conditions.
  std::vector<PassResult> plain, traced;
  long long attempted = 0, failed = 0;
  double passes_s = 0.0;  // wall time of the passes, set-ups excluded
  u64 pass_seed = splitmix64(args.seed);
  for (i64 p = 0;; ++p) {
    const bool trace_this = args.trace && p % 2 == 1;
    // At least min_passes() untraced passes (one of each kind when
    // tracing), even past --seconds.
    if (passes_s >= args.seconds &&
        (args.trace ? !plain.empty() && !traced.empty()
                    : plain.size() >= w->min_passes())) {
      break;
    }
    if (setup_s.size() < kSetups) setup();
    pass_seed = splitmix64(pass_seed);
    tracer.on = trace_this;
    const auto t0 = Clock::now();
    const int root = tracer.open("pass." + args.workload);
    PassResult r = w->pass(pass_seed, tracer);
    tracer.close(root);
    r.pass_wall_s = seconds_since(t0);
    passes_s += r.pass_wall_s;
    std::fprintf(stderr,
                 "pass %lld%s: %.4f s timed (%.4f s CPU), %.2f CPU ns/point\n",
                 static_cast<long long>(p), trace_this ? " (traced)" : "",
                 r.wall_s, r.cpu_s, r.cpu_s / r.points * 1e9);
    for (const auto& [cfg, t] : r.ops) {
      std::fprintf(stderr, "  op %-20s %.4f s  %.4f s CPU\n", cfg.c_str(),
                   t.wall_s, t.cpu_s);
    }
    attempted += r.attempted;
    failed += r.failed;
    (trace_this ? traced : plain).push_back(std::move(r));
  }
  tracer.on = false;
  while (setup_s.size() < kSetups) setup();

  auto med = [](const std::vector<PassResult>& v,
                const std::function<double(const PassResult&)>& f) {
    std::vector<double> xs;
    for (const PassResult& r : v) xs.push_back(f(r));
    return bench::percentile(xs, 50.0);
  };
  // Each config's median op time over the passes, summed, per point: a
  // burst of host noise during one op does not move the figure.
  const auto per_point_ns = [&](double OpTime::*field) {
    std::map<std::string, std::vector<double>> op_s;
    std::map<std::string, double> op_points;
    for (const PassResult& r : plain) {
      for (const auto& [cfg, t] : r.ops) {
        op_s[cfg].push_back(t.*field);
        op_points[cfg] = t.points;
      }
    }
    double sum_s = 0.0, sum_points = 0.0;
    for (const auto& [cfg, xs] : op_s) {
      sum_s += bench::percentile(xs, 50.0);
      sum_points += op_points[cfg];
    }
    return sum_points > 0 ? sum_s / sum_points * 1e9 : 0.0;
  };
  const double cpu_ns_per_point = per_point_ns(&OpTime::cpu_s);
  const double wall_ns_per_point = per_point_ns(&OpTime::wall_s);
  const bool correct = failed == 0;
  std::printf("passes=%zu traced_passes=%zu ops=%lld failed=%lld "
              "fail_rate=%g ratio\n",
              plain.size(), traced.size(), attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  for (const auto& [cfg, c] : w->counts) {
    std::printf("counts %-20s %s\n", cfg.c_str(), c.c_str());
  }

  const auto layer = [](const char* k) {
    return [k](const PassResult& r) { return layer_value(r.layers, k); };
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    // The per-workload end-to-end figures, by the names perfbench/METRICS.md
    // gives them; the JSON carries the workload-neutral set.
    std::vector<Metric> table{
        {"setup_wall_s", bench::percentile(setup_wall_s, 50.0), "s"}};
    if (args.workload == "paper-cold") {
      table.push_back({"compile_s", med(plain, [&](const PassResult& r) {
                         return layer("runtime.lower_s")(r) +
                                layer("verify.verify_s")(r);
                       }), "s"});
      table.push_back({"e2e_ns_per_point", wall_ns_per_point, "ns"});
    }
    if (args.workload != "autotune") {
      table.push_back({"run_ns_per_point", med(plain, [&](const PassResult& r) {
                         return layer("runtime.run_s")(r) / r.points * 1e9;
                       }), "ns"});
    } else {
      table.push_back({"search_s", med(plain, layer("cluster.search_s")), "s"});
    }
    table.push_back({"fail_rate",
                     attempted > 0 ? static_cast<double>(failed) / attempted
                                   : 0.0,
                     "ratio"});
    std::printf("\n%-36s %16s  %s\n", "end-to-end", "value", "unit");
    for (const Metric& m : table) {
      std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
    }
    metrics.push_back({"setup_s", bench::percentile(setup_s, 50.0), "s"});
    metrics.push_back({"cpu_ns_per_point", cpu_ns_per_point, "ns"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  // ---- Per-layer metrics: medians over the traced passes.
  std::map<std::string, std::vector<double>> series;
  for (const PassResult& r : traced) {
    for (const auto& [k, v] : r.layers) series[k].push_back(v);
  }
  Layers L;
  for (const auto& [k, v] : series) L[k] = bench::percentile(v, 50.0);
  const auto get = [&](const char* k) { return layer_value(L, k); };
  const double points = get("tiling.points");
  L["tiling.interior_point_share"] =
      points > 0 ? get("tiling.interior_points") / points : 0.0;
  L["runtime.compute_ns_per_point"] =
      points > 0 ? get("runtime.compute_s") / points * 1e9 : 0.0;
  const double live = get("cluster.search.pruned") + get("cluster.search.evaluated");
  L["cluster.search.prune_rate"] =
      live > 0 ? get("cluster.search.pruned") / live : 0.0;
  for (const auto& [k, v] : w->setup_layers) L[k] = v;
  const double msgs = get("mpisim.messages");
  L["mpisim.roundtrip_us"] =
      msgs > 0 ? roundtrip_us(static_cast<std::size_t>(
                     get("mpisim.doubles") / msgs + 0.5))
               : 0.0;

  // Self time per layer and the reconciliation against op wall time.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  double pass_wall = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_s - s.start_s;
    if (s.parent < 0) pass_wall += dur;
    const bool frame = s.name.rfind("op.", 0) == 0 || s.name.rfind("pass.", 0) == 0;
    self[frame ? "unspanned" : s.name.substr(0, s.name.find('.'))] +=
        dur - child[i];
  }
  const double n_traced = static_cast<double>(traced.size());
  for (const char* name : {"runtime", "verify", "cluster", "bench", "unspanned"}) {
    L[std::string("trace.self.") + name + "_s"] = self[name] / n_traced;
  }
  L["trace.span_coverage"] =
      pass_wall > 0 ? 1.0 - self["unspanned"] / pass_wall : 0.0;
  const auto pass_wall_of = [](const PassResult& r) { return r.pass_wall_s; };
  const double plain_wall = med(plain, pass_wall_of);
  const double traced_wall = med(traced, pass_wall_of);
  L["trace.overhead_s"] = traced_wall - plain_wall;
  L["trace.overhead_pct"] =
      plain_wall > 0 ? (traced_wall - plain_wall) / plain_wall * 100.0 : 0.0;

  if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, L[name], unit});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
