// HYMV benchmark workloads.
//
// One process runs one workload from one seed and prints one JSON report
// as its last stdout line (perfbench/run.py reduces it to the benchmark's
// result line). Every number is taken from outside the library: the code
// here times calls into each module's public functions and reads values
// those calls already return. Nothing inside src/ is instrumented, and the
// library's own tracer (obs::Tracer) is never armed.
//
// Workloads (see perfbench/STEADINESS.md for why each was chosen):
//   hex8_crack_2r1t   linear elasticity bar on 2 simmpi ranks x 1 thread,
//                     HYMV + Jacobi-CG. Each crack advance heals the last
//                     softened band of element matrices, softens a new
//                     seeded band in place (update_elements) and rebuilds
//                     Jacobi; load cases are then solved one at a time.
//   hex20_mg_1r2t     quadratic elasticity on 1 rank x 2 threads, fp32
//                     geometric-multigrid PCG. Each step re-evaluates a
//                     seeded band in place (same material) and solves.
//   svc_loadcases_c4  svc::SolveService in closed loop: 4 client threads
//                     submit bursts of load cases and wait for them.
// The measured window (--seconds) is spread over cycles / phases so every
// metric is sampled across the whole run; values are in-run medians.
//
// Usage:
//   hymv_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--steps <n>] [--trace-file <path>]
//
// --tiny shrinks every problem (for the self-test); --steps fixes the number
// of timed steps / bursts instead of running for --seconds, so counts repeat
// exactly across runs of one seed.

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hymv/common/isa.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/constraints.hpp"
#include "hymv/svc/solve_service.hpp"

#ifndef HYMV_BENCH_COMPILER
#define HYMV_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace hymv;
using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a sample; NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// "n=.. min=.. q1=.. median=.. q3=.. max=.." of a sample, for the report.
std::string describe(const std::vector<double>& v) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
                v.size(), quantile(v, 0.0), quantile(v, 0.25),
                quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1.0));
  return buf;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return std::nan("");
  }
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Span log: spans recorded in memory by this file's own code around calls
// into the library, written out as a Chrome trace at the end of a traced run.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double t0;
  double dur;
  int rank;
};

class SpanLog {
 public:
  void arm() { armed_ = true; }

  void record(const char* name, double t0, double dur, int rank) {
    if (!armed_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, dur, rank});
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  void write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    i == 0 ? "" : ",", s.name, s.rank, s.t0 * 1e6,
                    s.dur * 1e6);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  bool armed_ = false;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Times `fn`, records a span under `name` and returns the seconds taken.
template <typename Fn>
double timed(const char* name, int rank, Fn&& fn) {
  const double t0 = now_s();
  fn();
  const double dt = now_s() - t0;
  g_spans.record(name, t0, dt, rank);
  return dt;
}

/// Forwarding operator that times every apply under the span `name` (the
/// traced run's view of an operator CG sees).
class TimedOperator final : public pla::LinearOperator {
 public:
  TimedOperator(pla::LinearOperator& inner, const char* name, int rank)
      : inner_(inner), name_(name), rank_(rank) {}
  [[nodiscard]] const pla::Layout& layout() const override {
    return inner_.layout();
  }
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override {
    total_s += timed(name_, rank_, [&] { inner_.apply(comm, x, y); });
  }
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y) override {
    total_s += timed(name_, rank_, [&] { inner_.apply_multi(comm, x, y); });
  }
  std::vector<double> diagonal(simmpi::Comm& comm) override {
    return inner_.diagonal(comm);
  }
  pla::CsrMatrix owned_block(simmpi::Comm& comm) override {
    return inner_.owned_block(comm);
  }
  [[nodiscard]] std::int64_t apply_flops() const override {
    return inner_.apply_flops();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return inner_.apply_bytes();
  }

  double total_s = 0.0;

 private:
  pla::LinearOperator& inner_;
  const char* name_;
  int rank_;
};

/// Forwarding preconditioner that times every apply.
class TimedPreconditioner final : public pla::Preconditioner {
 public:
  TimedPreconditioner(pla::Preconditioner& inner, int rank)
      : inner_(inner), rank_(rank) {}
  void apply(simmpi::Comm& comm, const pla::DistVector& r,
             pla::DistVector& z) override {
    total_s +=
        timed("pla.precond_apply", rank_, [&] { inner_.apply(comm, r, z); });
  }

  double total_s = 0.0;

 private:
  pla::Preconditioner& inner_;
  int rank_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

/// A decomposition of one end-to-end time into per-layer self times plus an
/// explicit unaccounted row (parent - sum of rows). The parent is named for
/// what it is: a mean over the run's samples, rank 0's own time, or a side
/// operator's figure, not the reported end-to-end median.
///
/// A decomposition whose rows come from other clocks than its parent (the
/// library's phase timers against a wrapper's, a service response against
/// the client's clock) is checked: its unaccounted row must stay within
/// kReconcileTolerance. One that has a remainder row, spans back-to-back
/// timers, or whose parent is defined as the sum of its rows sums exactly
/// by construction; it carries the reason in `exact_because` and only its
/// rows' signs are checked (a negative remainder means overlapping timers).
struct Decomposition {
  std::string parent;
  std::string unit;
  double parent_value = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  std::string exact_because;  // empty: independent, checked
  double calls = 1.0;         // timed calls the parent spans (for the floor)

  [[nodiscard]] double rows_sum() const {
    double s = 0.0;
    for (const auto& r : rows) {
      s += r.second;
    }
    return s;
  }
  [[nodiscard]] double unaccounted() const { return parent_value - rows_sum(); }
};

/// Tolerance the traced run's checked decompositions must meet: the
/// unaccounted row may not exceed this share of its parent, or
/// kReconcileFloorS per timed call the parent spans (clock reads, a span
/// record and a thread wake-up; it decides only on tiny problems), and no
/// row may be negative by more than that floor.
constexpr double kReconcileTolerance = 0.05;
constexpr double kReconcileFloorS = 20e-6;

struct Report {
  std::string workload;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<Decomposition> decompositions;
  std::map<std::string, std::string> info;
  std::vector<std::string> failures;  // gate violations (correct = false)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// FNV-1a over the seed-derived inputs (bands, load-case scales, problem
  /// picks), so a self-test can see that another seed changes the inputs.
  std::uint64_t inputs_hash = 1469598103934665603ULL;

  void fail(const std::string& why) { failures.push_back(why); }
  void mix_input(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      inputs_hash = (inputs_hash ^ ((bits >> (8 * i)) & 0xffU)) *
                    1099511628211ULL;
    }
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
           json_number(metric.value) + ",\"unit\":" + json_string(metric.unit) +
           "}";
    first = false;
  }
  return out + "}";
}

std::string report_json(const Report& r) {
  std::string out = "{\"workload\":" + json_string(r.workload);
  out += ",\"correct\":" + std::string(r.failures.empty() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"inputs_hash\":" + json_string(std::to_string(r.inputs_hash));
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"end_to_end\":" + metrics_json(r.e2e);
  out += ",\"per_layer\":" + metrics_json(r.layer);
  out += ",\"decompositions\":[";
  for (std::size_t i = 0; i < r.decompositions.size(); ++i) {
    const Decomposition& d = r.decompositions[i];
    out += (i == 0 ? "{" : ",{");
    out += "\"parent\":" + json_string(d.parent) +
           ",\"unit\":" + json_string(d.unit) +
           ",\"value\":" + json_number(d.parent_value) +
           ",\"exact_because\":" + json_string(d.exact_because) +
           ",\"rows\":{";
    for (std::size_t j = 0; j < d.rows.size(); ++j) {
      out += j == 0 ? "" : ",";
      out += json_string(d.rows[j].first);
      out += ":";
      out += json_number(d.rows[j].second);
    }
    out += "},\"unaccounted\":" + json_number(d.unaccounted()) + "}";
  }
  out += "],\"reconcile_tolerance\":" + json_number(kReconcileTolerance);
  out += ",\"reconcile_floor_s\":" + json_number(kReconcileFloorS);
  out += ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_string(v);
    first = false;
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_string(r.failures[i]);
  }
  return out + "]}";
}

/// Checks the rows' signs of every decomposition and the unaccounted share
/// of the independent ones, and adds each unaccounted row to the per-layer
/// metrics as "<parent>.unaccounted".
void reconcile(Report& r) {
  double worst = 0.0;
  for (const Decomposition& d : r.decompositions) {
    const double floor =
        kReconcileFloorS * d.calls * (d.unit == "ms" ? 1e3 : 1.0);
    for (const auto& [name, v] : d.rows) {
      if (!(v >= -floor)) {
        r.fail("decomposition of " + d.parent + ": row " + name +
               " is negative");
      }
    }
    r.layer[d.parent + ".unaccounted"] = {d.unaccounted(), d.unit};
    if (!d.exact_because.empty()) {
      continue;
    }
    const double share = std::abs(d.unaccounted()) / d.parent_value;
    worst = std::max(worst, share);
    if (!(share <= kReconcileTolerance) &&
        !(std::abs(d.unaccounted()) <= floor)) {
      r.fail("decomposition of " + d.parent + ": unaccounted share " +
             json_number(share) + " exceeds " +
             json_number(kReconcileTolerance));
    }
  }
  r.layer["trace.max_unaccounted_pct"] = {worst * 100.0, "%"};
}

// ---------------------------------------------------------------------------
// Host fingerprint and thread budget
// ---------------------------------------------------------------------------

double llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) {
    return static_cast<double>(v);
  }
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) {
    double mult = 1.0;
    if (s.back() == 'K') {
      mult = 1024.0;
    } else if (s.back() == 'M') {
      mult = 1024.0 * 1024.0;
    }
    return std::atof(s.c_str()) * mult;
  }
  return 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void fingerprint(Report& r) {
  const double triad = numa::measured_triad_bytes_per_s();
  r.info["host.nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["host.isa"] = std::string(isa::to_string(isa::detected()));
  r.info["host.triad_gbps"] = json_number(triad / 1e9);
  r.info["host.llc_mib"] = json_number(llc_bytes() / (1024.0 * 1024.0));
  r.info["host.compiler"] = HYMV_BENCH_COMPILER;
  r.layer["host.triad_gbps"] = {triad / 1e9, "GB/s"};
}

/// Every workload keeps simmpi ranks x OpenMP threads (x service workers)
/// within this many cores of the 4-core host, leaving one for the runner
/// and the OS.
constexpr int kThreadBudget = 3;

/// Records, from inside every rank of a job, the OpenMP team size the rank
/// would open and the job's rank count; the maxima are checked against
/// kThreadBudget.
struct ThreadProbe {
  std::atomic<int> max_threads{0};
  std::atomic<int> max_ranks{0};

  void observe(int ranks) {
    raise(max_threads, omp_get_max_threads());
    raise(max_ranks, ranks);
  }

 private:
  static void raise(std::atomic<int>& slot, int v) {
    int cur = slot.load();
    while (v > cur && !slot.compare_exchange_weak(cur, v)) {
    }
  }
};

/// `workers` concurrent jobs of the observed shape (1 for a batch run).
void check_budget(Report& r, int workers, const ThreadProbe& probe) {
  const int threads = probe.max_threads.load();
  const int ranks = probe.max_ranks.load();
  const int total = ranks * threads * workers;
  r.info["budget.ranks"] = std::to_string(ranks);
  r.info["budget.workers"] = std::to_string(workers);
  r.info["budget.omp_threads_per_rank"] = std::to_string(threads);
  r.info["budget.limit"] = std::to_string(kThreadBudget);
  r.layer["run.threads_total"] = {static_cast<double>(total), "count"};
  if (threads < 1 || ranks < 1 || total > kThreadBudget) {
    r.fail("thread budget exceeded: ranks x threads x workers = " +
           std::to_string(total) + " > " + std::to_string(kThreadBudget));
  }
}

// ---------------------------------------------------------------------------
// Problem definitions
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int steps = 0;  // >0: fixed step / burst counts instead of --seconds
  std::string trace_file;
};

driver::ProblemSpec bar_spec(mesh::ElementType element, std::int64_t n,
                             double young) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = element;
  spec.box = {.nx = n, .ny = n, .nz = n, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;
  spec.young = young;
  return spec;
}

/// Parameters of the two direct-operator workloads. A run is a fixed number
/// of cycles spread over --seconds; each cycle rebuilds the problem cold (one
/// setup_s sample, fresh allocations), runs warm apply blocks and then
/// update + solve steps (at least one) until its share of the run is used.
/// Every metric is therefore sampled across the whole run, not in one burst
/// at its start.
struct BatchConfig {
  mesh::ElementType element;
  std::int64_t n;            // elements per box edge
  int ranks;
  driver::Precond precond;
  bool precond_fp32;
  double rtol;
  std::int64_t true_residual_every;
  int cycles;                // cold setups per run
  int spmv_blocks;           // warm apply blocks per cycle
  int spmv_block_applies;
  int updates_per_step;      // crack advances per step (mean: one update_s)
  int load_cases;            // solves per step, after its last update
  double band_share;         // share of local elements updated per advance
  double soften;             // stiffness scale of the updated band (1 = same)
  bool rebuild_jacobi;       // rebuild the preconditioner after each update
  double err_tol;            // ||u - u*||_inf gate on pristine-operator solves
};

BatchConfig crack_config(bool tiny) {
  return {.element = mesh::ElementType::kHex8,
          .n = tiny ? 6 : 46,
          .ranks = 2,
          .precond = driver::Precond::kJacobi,
          .precond_fp32 = false,
          .rtol = 1e-3,
          .true_residual_every = 0,
          .cycles = 3,
          .spmv_blocks = tiny ? 2 : 8,
          .spmv_block_applies = tiny ? 2 : 6,
          .updates_per_step = tiny ? 4 : 24,
          .load_cases = 2,
          .band_share = 0.02,
          .soften = 0.5,
          .rebuild_jacobi = true,
          .err_tol = 1e-4};
}

BatchConfig mg_config(bool tiny) {
  return {.element = mesh::ElementType::kHex20,
          .n = tiny ? 4 : 14,
          .ranks = 1,
          .precond = driver::Precond::kMultigrid,
          .precond_fp32 = true,
          .rtol = 1e-6,
          .true_residual_every = 50,
          .cycles = 5,
          .spmv_blocks = tiny ? 2 : 8,
          .spmv_block_applies = tiny ? 2 : 10,
          .updates_per_step = 4,
          .load_cases = 3,
          .band_share = 0.05,
          .soften = 1.0,
          .rebuild_jacobi = false,
          .err_tol = 1e-6};
}

// ---------------------------------------------------------------------------
// Cold setup: the whole chain, with per-layer times
// ---------------------------------------------------------------------------

struct SetupTimes {
  double mesh_build_s = 0.0;  // rank-shared ProblemSetup::build
  double context_s = 0.0;     // RankContext
  double backend_s = 0.0;     // build_backend (whole call)
  double emat_s = 0.0;        // of which: element-matrix computation
  double store_s = 0.0;       //           local copy into the store
  double maps_s = 0.0;        //           map construction
  double schedule_s = 0.0;    //           element-graph coloring
  double rhs_s = 0.0;         // constrained right-hand side
  double precond_s = 0.0;     // make_preconditioner
  double chain_s = 0.0;       // everything inside the rank, wall

  [[nodiscard]] double total_s() const { return mesh_build_s + chain_s; }
};

struct Rig {
  std::unique_ptr<driver::RankContext> ctx;
  driver::BuiltBackend built;
  std::unique_ptr<pla::ConstrainedOperator> ac;
  pla::DistVector b;
  std::unique_ptr<pla::Preconditioner> m;
  SetupTimes times;

  [[nodiscard]] core::HymvOperator& hymv() const { return *built.hymv_cpu; }
};

/// RankContext -> build_backend -> constrained RHS -> make_preconditioner
/// on this rank, each call timed from outside.
std::unique_ptr<Rig> build_rig(simmpi::Comm& comm,
                               const driver::ProblemSetup& setup,
                               driver::Precond precond, bool fp32) {
  auto rig = std::make_unique<Rig>();
  const int rank = comm.rank();
  const double t0 = now_s();
  rig->times.context_s = timed("driver.context", rank, [&] {
    rig->ctx = std::make_unique<driver::RankContext>(comm, setup);
  });
  rig->times.backend_s = timed("driver.build_backend", rank, [&] {
    rig->built = driver::build_backend(comm, *rig->ctx, driver::Backend::kHymv);
  });
  // Wall-axis phase gauges of the operator's own registry (not a merged
  // rank registry): the SetupReport fields carry the CPU axis.
  const obs::MetricsRegistry& reg = rig->hymv().metrics();
  rig->times.emat_s = reg.gauge_value("setup.emat_compute_s");
  rig->times.store_s = reg.gauge_value("setup.local_copy_s");
  rig->times.maps_s = reg.gauge_value("setup.maps_s");
  rig->times.schedule_s = reg.gauge_value("setup.schedule_s");
  rig->ac = std::make_unique<pla::ConstrainedOperator>(
      *rig->built.op, rig->ctx->constraints());
  rig->times.rhs_s = timed("driver.rhs", rank, [&] {
    rig->b = rig->ctx->assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, *rig->built.op,
                                  rig->ctx->constraints(), rig->b);
  });
  rig->times.precond_s = timed("pla.precond_setup", rank, [&] {
    rig->m = driver::make_preconditioner(comm, *rig->ctx, *rig->ac, precond,
                                         fp32);
  });
  rig->times.chain_s = now_s() - t0;
  return rig;
}

/// One cold setup: rank 0 builds the rank-shared mesh into `shared`, then
/// every rank builds its chain. Rank 0 appends the times of the rank whose
/// chain was slowest (setup_s is the max over ranks). Collective.
std::unique_ptr<Rig> cold_setup(simmpi::Comm& comm,
                                std::shared_ptr<driver::ProblemSetup>& shared,
                                const driver::ProblemSpec& spec,
                                driver::Precond precond, bool fp32,
                                std::vector<SetupTimes>& samples) {
  comm.barrier();
  double mesh_s = 0.0;
  if (comm.rank() == 0) {
    shared.reset();
    mesh_s = timed("mesh.build", 0, [&] {
      shared = std::make_shared<driver::ProblemSetup>(
          driver::ProblemSetup::build(spec, comm.size()));
    });
  }
  comm.barrier();
  std::unique_ptr<Rig> rig = build_rig(comm, *shared, precond, fp32);
  rig->times.mesh_build_s = comm.allreduce(mesh_s, simmpi::ReduceOp::kMax);
  const double slow =
      comm.allreduce(rig->times.chain_s, simmpi::ReduceOp::kMax);
  const int owner = comm.allreduce(
      rig->times.chain_s == slow ? comm.rank() : comm.size(),
      simmpi::ReduceOp::kMin);
  SetupTimes t = rig->times;
  comm.bcast(std::span<SetupTimes>(&t, 1), owner);
  if (comm.rank() == 0) {
    samples.push_back(t);
  }
  return rig;
}

/// Per-layer rows of the cold setups (means over the samples, so rows and
/// their parent sum over the same samples) as a decomposition. The parent
/// is the measured wall of mesh build + rank chain; the rows are the timers
/// around each call of the chain, with build_backend split by its own
/// phase gauges (driver.backend_other_s is that call's remainder). The
/// unaccounted row is only the untimed code between the calls.
Decomposition setup_layers(Report& r, const std::vector<SetupTimes>& samples,
                           const std::string& parent) {
  auto avg = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : samples) {
      v.push_back(t.*field);
    }
    return mean(v);
  };
  Decomposition d{.parent = parent, .unit = "s",
                  .parent_value = avg(&SetupTimes::mesh_build_s) +
                                  avg(&SetupTimes::chain_s)};
  const double backend_other =
      avg(&SetupTimes::backend_s) - avg(&SetupTimes::emat_s) -
      avg(&SetupTimes::store_s) - avg(&SetupTimes::maps_s) -
      avg(&SetupTimes::schedule_s);
  d.rows = {{"mesh.build_s", avg(&SetupTimes::mesh_build_s)},
            {"driver.context_s", avg(&SetupTimes::context_s)},
            {"fem.emat_s", avg(&SetupTimes::emat_s)},
            {"core.store_s", avg(&SetupTimes::store_s)},
            {"core.maps_s", avg(&SetupTimes::maps_s)},
            {"core.schedule_s", avg(&SetupTimes::schedule_s)},
            {"driver.backend_other_s", backend_other},
            {"driver.rhs_s", avg(&SetupTimes::rhs_s)},
            {"pla.precond_setup_s", avg(&SetupTimes::precond_s)}};
  d.exact_because =
      "parent spans its timed calls back to back; driver.backend_other_s is "
      "build_backend's remainder";
  for (const auto& [name, v] : d.rows) {
    r.layer[name] = {v, "s"};
  }
  return d;
}

std::vector<double> setup_totals(const std::vector<SetupTimes>& samples) {
  std::vector<double> v;
  for (const SetupTimes& t : samples) {
    v.push_back(t.total_s());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Warm apply blocks (spmv_ms) and the kernel-vs-roofline layer
// ---------------------------------------------------------------------------

/// Deterministic seeded input vector (owned part of this rank).
void seeded_fill(pla::DistVector& x, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ static_cast<std::uint64_t>(x.layout().begin));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::int64_t i = 0; i < x.owned_size(); ++i) {
    x[i] = u(rng);
  }
}

/// A x0 for the seeded x0 — taken before any update and compared bitwise
/// after the updated bands are healed.
std::vector<double> reference_apply(simmpi::Comm& comm, core::HymvOperator& op,
                                    std::uint64_t seed) {
  pla::DistVector x(op.layout());
  pla::DistVector y(op.layout());
  seeded_fill(x, seed);
  op.apply(comm, x, y);
  return {y.values().begin(), y.values().end()};
}

/// Warm applies of the raw HYMV operator (the paper's SPMV), accumulated
/// over every block of a run. In a traced run, untraced and span-recorded
/// blocks alternate (their ratio is the tracing overhead) and one more block
/// runs with a one-thread OpenMP team.
struct SpmvAcc {
  std::vector<double> block_ms;  // per-apply ms of each untraced block
  std::vector<double> traced_block_ms;
  std::vector<double> one_thread_ms;
  double own_s = 0.0;  // this rank's time over the blocks the phases cover
  double emv_s = 0.0, lnsm_s = 0.0, gngm_s = 0.0, reduce_s = 0.0;
  std::int64_t applies = 0;
  std::int64_t messages = 0, bytes = 0;

  void run(simmpi::Comm& comm, core::HymvOperator& op, std::uint64_t seed,
           int blocks, int per_block, bool traced, int nrhs) {
    const int rank = comm.rank();
    pla::DistVector x(op.layout());
    pla::DistVector y(op.layout());
    pla::DistMultiVector xm;
    pla::DistMultiVector ym;
    if (nrhs > 1) {
      xm = pla::DistMultiVector(op.layout(), nrhs);
      ym = pla::DistMultiVector(op.layout(), nrhs);
      for (int j = 0; j < nrhs; ++j) {
        seeded_fill(x, seed + static_cast<std::uint64_t>(j));
        xm.set_lane(j, x);
      }
    }
    seeded_fill(x, seed);
    auto one_apply = [&] {
      if (nrhs > 1) {
        op.apply_multi(comm, xm, ym);
      } else {
        op.apply(comm, x, y);
      }
    };
    one_apply();  // warm-up: page faults, lazy panel buffers
    op.reset_apply_breakdown();
    // Traffic is counted around the applies only, not the barrier and
    // allreduce that frame each block.
    auto run_block = [&](bool record) {
      comm.barrier();
      const simmpi::TrafficCounters c0 = comm.counters();
      const double t0 = now_s();
      for (int i = 0; i < per_block; ++i) {
        if (record) {
          timed("core.apply", rank, one_apply);
        } else {
          one_apply();
        }
      }
      const double dt = now_s() - t0;
      const simmpi::TrafficCounters c1 = comm.counters();
      messages += c1.messages_sent - c0.messages_sent;
      bytes += c1.bytes_sent - c0.bytes_sent;
      return std::pair(dt, comm.allreduce(dt * 1e3 / per_block,
                                          simmpi::ReduceOp::kMax));
    };
    for (int b = 0; b < blocks; ++b) {
      const auto [dt, ms] = run_block(false);
      own_s += dt;
      block_ms.push_back(ms);
      if (traced) {
        const auto [tdt, tms] = run_block(true);
        own_s += tdt;
        traced_block_ms.push_back(tms);
      }
    }
    const core::ApplyBreakdown br = op.apply_breakdown();
    emv_s += br.emv_s;
    lnsm_s += br.lnsm_s;
    gngm_s += br.gngm_s;
    reduce_s += br.reduce_s;
    applies += br.applies;
    if (traced) {
      const std::int64_t m0 = messages, b0 = bytes;
      const int threads = omp_get_max_threads();
      omp_set_num_threads(1);
      one_thread_ms.push_back(run_block(false).second);
      omp_set_num_threads(threads);
      messages = m0;  // the one-thread block is outside the phase window
      bytes = b0;
    }
  }
};

/// spmv_ms plus, in a traced run, its decomposition and the roofline layer.
/// `apply_bytes` / `apply_flops` are per apply, summed over ranks. spmv_ms
/// and the block figures compared with it are medians over blocks, or means
/// (all blocks have the same size) where the blocks are two-valued and a
/// median is one of the two values.
void add_spmv(Report& r, const SpmvAcc& s, double apply_bytes,
              double apply_flops, bool traced, bool mean_of_blocks = false) {
  auto stat = [&](const std::vector<double>& v) {
    return mean_of_blocks ? mean(v) : median(v);
  };
  const double ms = stat(s.block_ms);
  r.e2e["spmv_ms"] = {ms, "ms"};
  r.info["sample.spmv_ms"] = describe(s.block_ms);
  if (!traced) {
    return;
  }
  const double n = static_cast<double>(std::max<std::int64_t>(1, s.applies));
  // Rank 0's own mean per-apply time over the same applies the phase
  // gauges covered (untraced and traced blocks alike; span cost sits
  // outside the operator), so rows and parent describe the same work. It is
  // not spmv_ms, the median over blocks of the slowest rank's time.
  Decomposition d{.parent = "spmv_ms.rank0_mean", .unit = "ms",
                  .parent_value = s.own_s * 1e3 / n};
  d.rows = {{"spmv.emv_ms", s.emv_s * 1e3 / n},
            {"spmv.lnsm_ms", s.lnsm_s * 1e3 / n},
            {"spmv.gngm_ms", s.gngm_s * 1e3 / n},
            {"spmv.reduce_ms", s.reduce_s * 1e3 / n}};
  for (const auto& [name, v] : d.rows) {
    r.layer[name] = {v, "ms"};
  }
  r.decompositions.push_back(d);
  r.layer["simmpi.messages_per_apply"] = {static_cast<double>(s.messages) / n,
                                          "count"};
  r.layer["simmpi.bytes_per_apply"] = {static_cast<double>(s.bytes) / n, "B"};
  r.layer["core.apply_bytes_computed"] = {apply_bytes, "B"};
  r.layer["core.apply_flops"] = {apply_flops, "flop"};
  r.layer["core.apply_gbps_computed"] = {apply_bytes / (ms * 1e-3) / 1e9,
                                         "GB/s"};
  r.layer["core.apply_gflops"] = {apply_flops / (ms * 1e-3) / 1e9, "GFLOP/s"};
  const double one = stat(s.one_thread_ms);
  r.layer["core.spmv_1t_ms"] = {one, "ms"};
  r.layer["core.thread_speedup"] = {one / ms, "ratio"};
  r.layer["trace.overhead_pct"] = {
      (stat(s.traced_block_ms) / ms - 1.0) * 100.0, "%"};
}

// ---------------------------------------------------------------------------
// Updates and solves
// ---------------------------------------------------------------------------

/// The seeded band of local elements updated at crack advance `step`: a
/// contiguous run of local element ids (a slab of the lattice under the
/// slab partition).
std::vector<std::int64_t> band(std::int64_t nlocal, double share,
                               std::uint64_t seed, int step) {
  const auto len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(share * static_cast<double>(nlocal)));
  std::mt19937_64 rng(seed * 1000003ULL + static_cast<std::uint64_t>(step));
  std::uniform_int_distribution<std::int64_t> start(0, nlocal - len);
  const std::int64_t s = start(rng);
  std::vector<std::int64_t> out(static_cast<std::size_t>(len));
  for (std::int64_t i = 0; i < len; ++i) {
    out[static_cast<std::size_t>(i)] = s + i;
  }
  return out;
}

double load_case_scale(std::uint64_t seed, int step, int lc) {
  std::mt19937_64 rng(seed * 7919ULL + static_cast<std::uint64_t>(step) * 31ULL +
                      static_cast<std::uint64_t>(lc));
  return std::uniform_real_distribution<double>(0.5, 2.0)(rng);
}

struct UpdateSample {
  double update_s = 0.0;   // update_elements .. preconditioner ready
  double write_s = 0.0;    // update_elements calls
  double rebuild_s = 0.0;  // preconditioner rebuild
  std::int64_t updated = 0;
  int step = 0;            // the step (svc: side round) it belongs to
};

/// One crack advance: heal the previous band, write the new one with `op`,
/// rebuild the preconditioner when the workload's is diagonal-based.
/// Collective.
UpdateSample advance(simmpi::Comm& comm, Rig& rig,
                     std::vector<std::int64_t>& prev,
                     const std::vector<std::int64_t>& cur,
                     const fem::ElementOperator& op, driver::Precond precond,
                     bool rebuild) {
  const int rank = comm.rank();
  UpdateSample u;
  const double t0 = now_s();
  u.write_s = timed("core.update_elements", rank, [&] {
    if (!prev.empty()) {
      rig.hymv().update_elements(prev, rig.ctx->element_op());
    }
    rig.hymv().update_elements(cur, op);
  });
  u.rebuild_s = timed("pla.precond_rebuild", rank, [&] {
    if (rebuild) {
      rig.m = driver::make_preconditioner(comm, *rig.ctx, *rig.ac, precond);
    }
  });
  u.update_s = now_s() - t0;
  u.updated = static_cast<std::int64_t>(prev.size() + cur.size());
  prev = cur;
  return u;
}

/// Heal the last band and compare A x0 bitwise with the reference taken on
/// the fresh store. Collective; true on every rank iff all ranks match.
bool heal_and_check(simmpi::Comm& comm, Rig& rig,
                    std::vector<std::int64_t>& prev,
                    const std::vector<double>& y0, std::uint64_t seed) {
  if (!prev.empty()) {
    rig.hymv().update_elements(prev, rig.ctx->element_op());
    prev.clear();
  }
  const std::vector<double> y = reference_apply(comm, rig.hymv(), seed);
  const int same = y == y0 ? 1 : 0;
  return comm.allreduce(same, simmpi::ReduceOp::kMin) == 1;
}

struct SolveTimes {
  double wall_s = 0.0;
  // Traced only: the constrained operator CG sees, the HYMV applies inside
  // it, and the preconditioner applies.
  double constrained_s = 0.0;
  double apply_s = 0.0;
  double precond_s = 0.0;
  core::ApplyBreakdown br;  // apply phases during the solve
  std::int64_t iterations = 0;
};

/// Traced CG operator: the HYMV operator and the Dirichlet wrapper around it
/// each timed by a forwarding wrapper (same arithmetic as Rig::ac).
struct TracedOperator {
  TimedOperator inner;
  pla::ConstrainedOperator constrained;
  TimedOperator outer;

  TracedOperator(Rig& rig, int rank)
      : inner(*rig.built.op, "core.apply", rank),
        constrained(inner, rig.ctx->constraints()),
        outer(constrained, "pla.constrained_apply", rank) {}

  void read(const TimedPreconditioner& m, SolveTimes& t) const {
    t.constrained_s = outer.total_s;
    t.apply_s = inner.total_s;
    t.precond_s = m.total_s;
  }
};

/// One CG solve of A x = scale * b from x = 0. In a traced run the operator
/// and preconditioner are wrapped so their time is split out; the untraced
/// run calls cg_solve on them directly.
pla::CgResult solve_once(simmpi::Comm& comm, Rig& rig, const BatchConfig& cfg,
                         double scale, bool traced, pla::DistVector& x,
                         SolveTimes& t) {
  pla::DistVector bj(rig.b.layout());
  pla::copy(rig.b, bj);
  for (std::int64_t i = 0; i < bj.owned_size(); ++i) {
    bj[i] *= scale;
  }
  x.set_all(0.0);
  const pla::CgOptions opts{.rtol = cfg.rtol,
                            .max_iters = 20000,
                            .true_residual_every = cfg.true_residual_every};
  rig.hymv().reset_apply_breakdown();
  pla::CgResult res;
  if (traced) {
    TracedOperator a(rig, comm.rank());
    TimedPreconditioner m(*rig.m, comm.rank());
    t.wall_s = timed("pla.cg_solve", comm.rank(), [&] {
      res = pla::cg_solve(comm, a.outer, m, bj, x, opts);
    });
    a.read(m, t);
  } else {
    t.wall_s = timed("pla.cg_solve", comm.rank(), [&] {
      res = pla::cg_solve(comm, *rig.ac, *rig.m, bj, x, opts);
    });
  }
  t.br = rig.hymv().apply_breakdown();
  t.iterations = res.iterations;
  return res;
}

/// True relative residual ||scale*b - A x|| / ||scale*b|| (one extra apply,
/// outside every timed window).
double true_relres(simmpi::Comm& comm, Rig& rig, double scale,
                   const pla::DistVector& x) {
  pla::DistVector ax(x.layout());
  rig.ac->apply(comm, x, ax);
  pla::DistVector r(x.layout());
  for (std::int64_t i = 0; i < r.owned_size(); ++i) {
    r[i] = scale * rig.b[i] - ax[i];
  }
  return pla::norm2(comm, r) / (std::abs(scale) * pla::norm2(comm, rig.b));
}

/// Solve decompositions (means per solve). The solve splits into the
/// HYMV applies CG issued, the Dirichlet wrapper's own work around them,
/// the preconditioner applies and the remainder, CG's own vector work and
/// reductions. The HYMV applies split in turn into the operator's phase
/// timers (apply_breakdown) against the wrapper's clock: that one is
/// checked.
void solve_layers(Report& r, const std::vector<SolveTimes>& solves,
                  const std::string& parent) {
  double emv = 0, lnsm = 0, gngm = 0, reduce = 0, apply = 0, constrained = 0,
         prec = 0, wall = 0, iters = 0, applies = 0;
  for (const SolveTimes& t : solves) {
    emv += t.br.emv_s;
    lnsm += t.br.lnsm_s;
    gngm += t.br.gngm_s;
    reduce += t.br.reduce_s;
    apply += t.apply_s;
    constrained += t.constrained_s;
    prec += t.precond_s;
    wall += t.wall_s;
    iters += static_cast<double>(t.iterations);
    applies += static_cast<double>(t.br.applies);
  }
  const double n = static_cast<double>(solves.size());
  Decomposition ds{.parent = parent, .unit = "s", .parent_value = wall / n};
  ds.rows = {{"core.apply_s", apply / n},
             {"pla.constraints_s", (constrained - apply) / n},
             {"pla.precond_apply_s", prec / n},
             {"pla.cg_other_s", (wall - constrained - prec) / n}};
  ds.exact_because =
      "pla.cg_other_s is the remainder wall - constrained apply - precond";
  Decomposition da{.parent = "core.apply_s.per_solve_mean", .unit = "s",
                   .parent_value = apply / n, .calls = applies / n};
  da.rows = {{"core.apply.emv_s", emv / n},
             {"core.apply.lnsm_s", lnsm / n},
             {"core.apply.gngm_s", gngm / n},
             {"core.apply.reduce_s", reduce / n}};
  for (const Decomposition* d : {&ds, &da}) {
    for (const auto& [name, v] : d->rows) {
      r.layer[name] = {v, "s"};
    }
    r.decompositions.push_back(*d);
  }
  r.layer["pla.cg_iterations"] = {iters / n, "count"};
  r.layer["core.applies_per_solve"] = {applies / n, "count"};
}

Decomposition update_layers(Report& r, const std::vector<UpdateSample>& ups,
                            const std::string& parent) {
  std::vector<double> upd, write, rebuild;
  for (const UpdateSample& u : ups) {
    upd.push_back(u.update_s);
    write.push_back(u.write_s);
    rebuild.push_back(u.rebuild_s);
  }
  Decomposition d{.parent = parent, .unit = "s", .parent_value = mean(upd)};
  d.rows = {{"core.update_s", mean(write)},
            {"pla.precond_rebuild_s", mean(rebuild)}};
  // Two back-to-back timers inside the parent's window: the unaccounted row
  // is only the clock reads between them.
  d.exact_because = "parent spans its two timed calls back to back";
  for (const auto& [name, v] : d.rows) {
    r.layer[name] = {v, "s"};
  }
  return d;
}

/// update_s is the median over steps (svc: side rounds) of a step's mean
/// advance. Single advances can be bimodal: on mg they read either about
/// 6.5 or about 13 ms, the first after a solve being the fast one, so a
/// median over single advances flipped between the modes from run to run.
void add_update(Report& r, const std::vector<UpdateSample>& ups) {
  std::map<int, std::pair<double, int>> steps;  // step -> (sum, count)
  double updated = 0.0;
  for (const UpdateSample& u : ups) {
    steps[u.step].first += u.update_s;
    ++steps[u.step].second;
    updated += static_cast<double>(u.updated);
  }
  std::vector<double> upd;
  for (const auto& [step, sum] : steps) {
    upd.push_back(sum.first / sum.second);
  }
  r.e2e["update_s"] = {median(upd), "s"};
  r.info["sample.update_s"] = describe(upd);
  r.layer["core.updated_elements"] = {
      updated / static_cast<double>(ups.size()), "count"};
}

// ---------------------------------------------------------------------------
// Batch workloads (crack, mg)
// ---------------------------------------------------------------------------

struct LoadCase {
  double scale = 1.0;    // load-case multiplier of the RHS
  double queue_s = 0.0;  // crack advance start -> solve start
  int step = 0;          // the step whose last advance the case arrived with
  SolveTimes t;
};

/// What rank 0 collects inside the simmpi job.
struct BatchResult {
  std::vector<SetupTimes> setups;
  SpmvAcc spmv;
  std::vector<UpdateSample> updates;
  std::vector<std::int64_t> band_starts;
  std::vector<LoadCase> cases;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  double store_bytes = 0.0, apply_bytes = 0.0, apply_flops = 0.0;
  double stepping_s = 0.0, pristine_err = 0.0;
  int cycles = 0;
};

/// The rank function of a batch workload. `shared` is the rank-shared mesh
/// slot (rank 0 fills it during each cold setup); rank 0 fills `out`.
void batch_job(simmpi::Comm& comm, const Options& o, const BatchConfig& cfg,
               const driver::ProblemSpec& spec,
               std::shared_ptr<driver::ProblemSetup>& shared,
               ThreadProbe& probe, BatchResult& out) {
  probe.observe(comm.size());
  const int rank = comm.rank();
  const bool traced = o.trace;
  std::vector<SetupTimes> setups;
  SpmvAcc spmv;
  std::vector<UpdateSample> updates;
  std::vector<std::int64_t> band_starts;
  std::vector<LoadCase> cases;
  std::vector<std::string> failures;
  std::int64_t attempted = 0, failed = 0;
  double pristine_err = 0.0;
  double stepping_s = 0.0;  // wall time of the update + solve steps
  fem::ElasticityOperator soft(cfg.element, spec.young, spec.poisson_ratio);
  soft.set_stiffness_scale(cfg.soften);
  // Collective go/no-go: rank 0's clock decides for everyone.
  auto agree = [&](bool more) {
    return comm.allreduce(rank == 0 && more ? 1 : 0, simmpi::ReduceOp::kMax) ==
           1;
  };

  comm.barrier();
  const double run0 = now_s();
  int step = 0;  // global crack-advance counter (seeds bands and loads)
  int step_no = 0;  // global step counter (groups the update_s samples)
  int cycle = 0;
  // A fixed number of cycles, each given its share of --seconds on one
  // schedule; a cycle whose setup and first step overrun its share delays
  // the run's end rather than dropping a later cycle's samples.
  const int cycles = o.steps > 0 ? 2 : cfg.cycles;
  for (; cycle < cycles; ++cycle) {
    const double cycle_end = run0 + (cycle + 1) * o.seconds / cfg.cycles;
    std::unique_ptr<Rig> rig = cold_setup(comm, shared, spec, cfg.precond,
                                          cfg.precond_fp32, setups);
    core::HymvOperator& hymv = rig->hymv();
    const std::int64_t nlocal = hymv.maps().num_elements();
    if (cycle == 0) {
      out.store_bytes = comm.allreduce(static_cast<double>(hymv.store().bytes()),
                                       simmpi::ReduceOp::kSum);
      out.apply_bytes = comm.allreduce(static_cast<double>(hymv.apply_bytes()),
                                       simmpi::ReduceOp::kSum);
      out.apply_flops = comm.allreduce(static_cast<double>(hymv.apply_flops()),
                                       simmpi::ReduceOp::kSum);
    }
    const std::vector<double> y0 = reference_apply(comm, hymv, o.seed);
    spmv.run(comm, hymv, o.seed, cfg.spmv_blocks, cfg.spmv_block_applies,
             traced, 1);

    pla::DistVector x(rig->b.layout());
    if (cycle == 0) {
      // Pristine-operator solve: the analytic-error gate.
      SolveTimes t;
      const pla::CgResult c = solve_once(comm, *rig, cfg, 1.0, traced, x, t);
      pristine_err = rig->ctx->error_inf(comm, x);
      ++attempted;
      if (!c.converged || !(pristine_err <= cfg.err_tol)) {
        ++failed;
        failures.push_back("pristine solve: converged=" +
                           std::to_string(c.converged) +
                           " err_inf=" + json_number(pristine_err));
      }
    }

    std::vector<std::int64_t> prev;
    for (int s = 0; agree(o.steps > 0 ? s < o.steps
                                      : s < 1 || now_s() < cycle_end);
         ++s) {
      const double step0 = now_s();
      double advance0 = 0.0;
      for (int u = 0; u < cfg.updates_per_step; ++u, ++step) {
        const std::vector<std::int64_t> cur =
            band(nlocal, cfg.band_share,
                 o.seed + static_cast<std::uint64_t>(rank), step);
        band_starts.push_back(cur.front());
        comm.barrier();
        advance0 = now_s();
        updates.push_back(advance(comm, *rig, prev, cur,
                                  cfg.soften == 1.0 ? rig->ctx->element_op()
                                                    : soft,
                                  cfg.precond, cfg.rebuild_jacobi));
        updates.back().step = step_no;
      }
      ++step_no;
      for (int lc = 0; lc < cfg.load_cases; ++lc) {
        LoadCase c;
        c.scale = load_case_scale(o.seed, step, lc);
        c.step = step_no - 1;
        c.queue_s = now_s() - advance0;
        const pla::CgResult res =
            solve_once(comm, *rig, cfg, c.scale, traced, x, c.t);
        cases.push_back(c);
        ++attempted;
        // Correctness outside the timed window: convergence, the true
        // residual, and (on an unmodified operator) the analytic error.
        const double rel = true_relres(comm, *rig, c.scale, x);
        bool ok = res.converged && rel <= 2.0 * cfg.rtol;
        if (cfg.soften == 1.0) {
          pla::DistVector xs(x.layout());
          for (std::int64_t i = 0; i < xs.owned_size(); ++i) {
            xs[i] = x[i] / c.scale;
          }
          ok = ok && rig->ctx->error_inf(comm, xs) <= cfg.err_tol;
        }
        if (!ok) {
          ++failed;
          failures.push_back("step " + std::to_string(step) + " case " +
                             std::to_string(lc) + ": converged=" +
                             std::to_string(res.converged) +
                             " relres=" + json_number(rel));
        }
      }
      stepping_s += now_s() - step0;
    }
    if (!heal_and_check(comm, *rig, prev, y0, o.seed)) {
      failures.push_back("cycle " + std::to_string(cycle) +
                         ": healed store does not reproduce A x0 bitwise");
    }
  }
  if (rank == 0) {
    out.setups = std::move(setups);
    out.spmv = std::move(spmv);
    out.updates = std::move(updates);
    out.band_starts = std::move(band_starts);
    out.cases = std::move(cases);
    out.attempted = attempted;
    out.failed = failed;
    out.failures = std::move(failures);
    out.stepping_s = stepping_s;
    out.pristine_err = pristine_err;
    out.cycles = cycle;
  }
}

void run_batch(const Options& o, const BatchConfig& cfg, Report& r) {
  const driver::ProblemSpec spec = bar_spec(cfg.element, cfg.n, 1000.0);
  ThreadProbe probe;
  BatchResult res;
  std::shared_ptr<driver::ProblemSetup> shared;
  simmpi::run(cfg.ranks, [&](simmpi::Comm& comm) {
    batch_job(comm, o, cfg, spec, shared, probe, res);
  });

  check_budget(r, 1, probe);
  r.attempted = res.attempted;
  r.failed = res.failed;
  for (const std::string& f : res.failures) {
    r.fail(f);
  }
  for (std::int64_t s : res.band_starts) {
    r.mix_input(static_cast<double>(s));
  }
  for (const LoadCase& c : res.cases) {
    r.mix_input(c.scale);
  }
  r.info["err_inf.pristine"] = json_number(res.pristine_err);
  r.info["err_inf.tolerance"] = json_number(cfg.err_tol);
  r.info["relres.tolerance"] = json_number(2.0 * cfg.rtol);
  r.info["elements"] = std::to_string(cfg.n * cfg.n * cfg.n);
  r.info["store_mib"] = json_number(res.store_bytes / (1024.0 * 1024.0));
  r.info["cycles"] = std::to_string(res.cycles);
  const double llc = llc_bytes();
  if (llc > 0.0) {
    r.info["store_over_llc"] = json_number(res.store_bytes / llc);
  }

  const std::vector<double> totals = setup_totals(res.setups);
  r.e2e["setup_s"] = {median(totals), "s"};
  r.info["sample.setup_s"] = describe(totals);
  add_spmv(r, res.spmv, res.apply_bytes, res.apply_flops, o.trace);
  add_update(r, res.updates);

  std::vector<double> exec, lat, queue;
  std::vector<std::vector<double>> step_lat;
  std::vector<SolveTimes> solves;
  for (const LoadCase& c : res.cases) {
    exec.push_back(c.t.wall_s);
    queue.push_back(c.queue_s * 1e3);
    lat.push_back((c.queue_s + c.t.wall_s) * 1e3);
    step_lat.resize(std::max<std::size_t>(step_lat.size(),
                                          static_cast<std::size_t>(c.step) + 1));
    step_lat[static_cast<std::size_t>(c.step)].push_back(lat.back());
    solves.push_back(c.t);
  }
  // Latency quantiles per step (its load cases arrive together), median
  // over steps. Over the whole run, p95 of a few dozen cases is about the
  // second-largest sample (ten-run spread 0.25 on mg), and p50 falls
  // between the modes of the first and the later cases of a step.
  std::vector<double> step_p50, step_p95;
  for (const std::vector<double>& v : step_lat) {
    step_p50.push_back(quantile(v, 0.5));
    step_p95.push_back(quantile(v, 0.95));
  }
  r.e2e["solve_s"] = {median(exec), "s"};
  // Load cases answered per second of stepping (cold setups and apply
  // blocks between cycles are not part of a crack-growth run's answers).
  r.e2e["throughput_rps"] = {
      static_cast<double>(res.cases.size()) / res.stepping_s, "1/s"};
  r.e2e["latency_p50_ms"] = {median(step_p50), "ms"};
  r.e2e["latency_p95_ms"] = {median(step_p95), "ms"};
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  r.info["sample.solve_s"] = describe(exec);
  r.info["sample.latency_ms"] = describe(lat);
  r.info["sample.step_latency_p50_ms"] = describe(step_p50);
  r.info["sample.step_latency_p95_ms"] = describe(step_p95);
  r.layer["core.store_mb"] = {res.store_bytes / 1e6, "MB"};

  // Batch load cases in the service vocabulary: a crack advance's load
  // cases arrive together, wait behind the update and earlier cases
  // (queue), then run one at a time (exec) on the already-built store.
  r.layer["svc.queue_ms_p50"] = {median(queue), "ms"};
  r.layer["svc.exec_ms_p50"] = {median(exec) * 1e3, "ms"};

  if (!o.trace) {
    return;
  }
  r.decompositions.push_back(setup_layers(r, res.setups, "setup_s.mean"));
  r.decompositions.push_back(update_layers(r, res.updates, "update_s.mean"));
  solve_layers(r, solves, "solve_s.mean");
  Decomposition dl{.parent = "latency_ms.mean", .unit = "ms",
                   .parent_value = mean(lat)};
  dl.rows = {{"svc.queue_ms_mean", mean(queue)},
             {"svc.exec_ms_mean", mean(exec) * 1e3}};
  dl.exact_because = "a load case's latency is defined as queue + exec";
  r.decompositions.push_back(dl);
}

// ---------------------------------------------------------------------------
// Service workload
// ---------------------------------------------------------------------------

struct SvcConfig {
  std::int64_t n;
  int problems;
  int clients;
  int warmups;       // fresh-service warm-ups (setup_s samples)
  int phases;        // closed-loop phases, each followed by a side round
  int side_spmv;     // panel apply blocks per side round, one operator each
  int side_block_applies;
  int side_updates;  // element-band updates per side round
  double rtol;
  double err_tol;
};

SvcConfig svc_config(bool tiny) {
  return {.n = tiny ? 12 : 20,
          .problems = tiny ? 2 : 6,
          .clients = 4,
          .warmups = tiny ? 2 : 3,
          .phases = tiny ? 4 : 10,
          .side_spmv = tiny ? 2 : 6,
          .side_block_applies = tiny ? 1 : 8,
          .side_updates = tiny ? 3 : 36,
          .rtol = 1e-3,
          .err_tol = 1e-4};
}

/// The service's panel width (max_panel) and each client's burst size.
constexpr int kSvcPanel = 4;

svc::ServiceOptions svc_options(ThreadProbe& probe) {
  svc::ServiceOptions so;
  so.workers = 2;
  so.ranks = 1;
  so.queue_capacity = 64;
  so.tenant_inflight = 64;
  so.max_panel = kSvcPanel;
  so.batch_window_ms = 2.0;
  so.cache_capacity_bytes = std::int64_t{1} << 30;
  so.default_deadline_ms = -1.0;
  so.watchdog_ms = 120000.0;
  so.backoff_base_ms = 1.0;
  so.cache_dir = "";
  so.store_checksums = false;
  // Runs on every rank of every solve job: records the team size and the
  // job's rank count (global / owned rows of the operator's layout).
  so.attempt_hook = [&probe](pla::LinearOperator& op, int) {
    const pla::Layout& l = op.layout();
    const auto owned = std::max<std::int64_t>(1, l.owned());
    probe.observe(static_cast<int>(std::llround(
        static_cast<double>(l.global_size) / static_cast<double>(owned))));
  };
  return so;
}

double young_of(int problem) { return 1000.0 * (1.0 + 0.25 * problem); }

struct Reply {
  int problem = 0;
  double rhs_scale = 1.0;
  svc::SolveResponse resp;
  double client_ms = 0.0;  // submit -> future ready, seen by the client
};

bool reply_ok(const svc::SolveResponse& r, double tol) {
  return r.outcome == svc::Outcome::kSolved && r.cg.converged &&
         r.err_inf <= tol;
}

/// One closed-loop phase: every client submits a burst of load cases for
/// one seeded problem, waits for all of them, and repeats until `seconds`
/// (or `bursts` bursts) have passed. Returns the phase wall time.
double closed_loop(svc::SolveService& service, const SvcConfig& cfg,
                   std::uint64_t seed, int phase, double seconds, int bursts,
                   std::vector<Reply>& replies) {
  std::mutex mu;  // guards replies
  const double t0 = now_s();
  std::vector<std::thread> clients;
  for (int c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 104729ULL +
                          static_cast<std::uint64_t>(phase * 64 + c));
      std::uniform_int_distribution<int> pick(0, cfg.problems - 1);
      std::uniform_real_distribution<double> scale(0.5, 2.0);
      for (int burst = 0;
           bursts > 0 ? burst < bursts : now_s() - t0 < seconds; ++burst) {
        const int p = pick(rng);
        std::vector<Reply> mine(static_cast<std::size_t>(kSvcPanel));
        std::vector<std::future<svc::SolveResponse>> futs;
        std::vector<double> t_submit;
        for (Reply& rep : mine) {
          svc::SolveRequest req;
          req.tenant = "client" + std::to_string(c);
          req.spec = bar_spec(mesh::ElementType::kHex8, cfg.n, young_of(p));
          req.rhs_scale = scale(rng);
          req.rtol = cfg.rtol;
          rep.problem = p;
          rep.rhs_scale = req.rhs_scale;
          t_submit.push_back(now_s());
          futs.push_back(service.submit(req));
        }
        for (std::size_t j = 0; j < futs.size(); ++j) {
          mine[j].resp = futs[j].get();
          mine[j].client_ms = (now_s() - t_submit[j]) * 1e3;
        }
        std::lock_guard<std::mutex> lock(mu);
        for (Reply& rep : mine) {
          replies.push_back(std::move(rep));
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  return now_s() - t0;
}

void run_svc(const Options& o, Report& r) {
  const SvcConfig cfg = svc_config(o.tiny);
  const bool traced = o.trace;
  ThreadProbe probe;

  // The whole workload runs from the rank thread of a 1-rank job. Besides
  // the service it holds one side operator, problem 0 built directly in the
  // worker shape (1 rank x 1 thread), for the layers the service does not
  // expose: the HYMV panel SPMV (apply_multi at the service's panel width),
  // in-place element updates and (traced) the split of one panel CG solve.
  // None of these is on the service's request path. Side rounds run between
  // closed-loop phases, while the service is idle, so they sample the same
  // stretch of time as the service metrics. The side operator is first
  // built after the first phase, once the service's peak RSS is read.
  const driver::ProblemSpec spec0 =
      bar_spec(mesh::ElementType::kHex8, cfg.n, young_of(0));
  const svc::ServiceOptions so = svc_options(probe);
  std::vector<SetupTimes> side_setups;
  SpmvAcc spmv;
  std::vector<UpdateSample> updates;
  std::vector<double> warm_wall;
  std::vector<svc::SolveResponse> warm_last;
  std::vector<Reply> replies;
  double loop_s = 0.0, service_rss_mb = 0.0;
  bool healed_same = false;
  std::int64_t hits = 0, misses = 0, degraded = 0;
  double store_bytes = 0.0, panel_bytes = 0.0, panel_flops = 0.0;
  SolveTimes panel;
  simmpi::run(1, [&](simmpi::Comm& comm) {
    probe.observe(comm.size());
    fem::ElasticityOperator soft(mesh::ElementType::kHex8, spec0.young,
                                 spec0.poisson_ratio);
    soft.set_stiffness_scale(0.5);
    int step = 0;
    healed_same = true;

    // Warm-ups: a fresh service per sample, one cold request per problem.
    std::unique_ptr<svc::SolveService> service;
    for (int rep = 0; rep < cfg.warmups; ++rep) {
      service.reset();
      service = std::make_unique<svc::SolveService>(so);
      const double t0 = now_s();
      std::vector<std::future<svc::SolveResponse>> futs;
      for (int p = 0; p < cfg.problems; ++p) {
        svc::SolveRequest req;
        req.tenant = "warmup";
        req.spec = bar_spec(mesh::ElementType::kHex8, cfg.n, young_of(p));
        req.rtol = cfg.rtol;
        futs.push_back(service->submit(req));
      }
      warm_last.clear();
      for (auto& f : futs) {
        warm_last.push_back(f.get());
      }
      warm_wall.push_back(now_s() - t0);
      for (const svc::SolveResponse& resp : warm_last) {
        ++r.attempted;
        if (!reply_ok(resp, cfg.err_tol) || resp.cache_hit) {
          ++r.failed;
          r.fail("warm-up request: outcome=" +
                 std::string(svc::outcome_name(resp.outcome)) + " reason=" +
                 resp.reason + " err_inf=" + json_number(resp.err_inf));
        }
      }
    }

    const obs::MetricsRegistry& mets = service->metrics();
    const std::int64_t hits0 = mets.counter_value("svc.cache.hits");
    const std::int64_t misses0 = mets.counter_value("svc.cache.misses");
    const std::int64_t degraded0 = mets.counter_value("svc.degraded_to_k1");
    std::shared_ptr<driver::ProblemSetup> shared;
    std::unique_ptr<Rig> side;
    for (int phase = 0; phase < cfg.phases; ++phase) {
      loop_s += closed_loop(*service, cfg, o.seed, phase,
                            o.seconds / cfg.phases,
                            o.steps > 0 ? o.steps : 0, replies);
      if (phase == 0) {
        // The service's own high-water mark: warm cache, worker operators
        // and panel buffers, before any side operator exists.
        service_rss_mb = peak_rss_mb();
      }
      // Problem 0 rebuilt cold each round (a cold-build sample on fresh
      // allocations).
      side.reset();  // before cold_setup replaces its mesh
      side = cold_setup(comm, shared, spec0, driver::Precond::kJacobi, false,
                        side_setups);
      Rig& rig = *side;
      if (phase == 0) {
        store_bytes = static_cast<double>(rig.hymv().store().bytes());
        panel_bytes =
            static_cast<double>(rig.hymv().apply_bytes_multi(kSvcPanel));
        panel_flops =
            static_cast<double>(rig.hymv().apply_flops_multi(kSvcPanel));
      }
      // Panel SPMV as the service's warm path would run it: an operator
      // restarted from a copy of the store, so every sample has its own
      // allocations (one placement per run made this metric's per-run
      // medians spread 0.3).
      for (int b = 0; b < cfg.side_spmv; ++b) {
        core::HymvOperator fresh(comm, rig.ctx->part(),
                                 rig.ctx->setup().spec.ndof_per_node(),
                                 core::ElementMatrixStore(rig.hymv().store()));
        spmv.run(comm, fresh, o.seed + static_cast<std::uint64_t>(b), 1,
                 cfg.side_block_applies, traced, kSvcPanel);
      }
      // Crack advances on the side operator.
      const std::vector<double> y0 =
          reference_apply(comm, rig.hymv(), o.seed);
      std::vector<std::int64_t> prev;
      for (int u = 0; u < cfg.side_updates; ++u, ++step) {
        updates.push_back(advance(comm, rig, prev,
                                  band(rig.hymv().maps().num_elements(), 0.02,
                                       o.seed, step),
                                  soft, driver::Precond::kJacobi, true));
        updates.back().step = phase;
      }
      healed_same =
          heal_and_check(comm, rig, prev, y0, o.seed) && healed_same;
    }
    hits = mets.counter_value("svc.cache.hits") - hits0;
    misses = mets.counter_value("svc.cache.misses") - misses0;
    degraded = mets.counter_value("svc.degraded_to_k1") - degraded0;
    service.reset();

    Rig& rig = *side;
    rig.m = driver::make_preconditioner(comm, *rig.ctx, *rig.ac,
                                        driver::Precond::kJacobi);
    if (traced) {
      // One panel CG solve at the service's width on the side operator,
      // split by layer.
      pla::DistMultiVector bp(rig.b.layout(), kSvcPanel);
      pla::DistMultiVector xp(rig.b.layout(), kSvcPanel);
      pla::DistVector bj(rig.b.layout());
      for (int j = 0; j < kSvcPanel; ++j) {
        pla::copy(rig.b, bj);
        for (std::int64_t i = 0; i < bj.owned_size(); ++i) {
          bj[i] *= load_case_scale(o.seed, 0, j);
        }
        bp.set_lane(j, bj);
      }
      TracedOperator a(rig, 0);
      TimedPreconditioner m(*rig.m, 0);
      rig.hymv().reset_apply_breakdown();
      std::vector<pla::CgResult> res;
      panel.wall_s = timed("pla.cg_solve_multi", 0, [&] {
        res = pla::cg_solve_multi(comm, a.outer, m, bp, xp, {.rtol = cfg.rtol});
      });
      panel.br = rig.hymv().apply_breakdown();
      a.read(m, panel);
      for (const pla::CgResult& c : res) {
        panel.iterations = std::max(panel.iterations, c.iterations);
        if (!c.converged) {
          r.fail("traced panel solve did not converge");
        }
      }
    }
  });
  if (!healed_same) {
    r.fail("healed store does not reproduce A x0 bitwise");
  }

  std::vector<double> lat, queue, exec, lanes, iters;
  std::int64_t solved = 0;
  double err_max = 0.0;
  // Clients append in completion order; sort so the input hash is
  // order-independent.
  std::vector<std::pair<int, double>> inputs;
  for (const Reply& rep : replies) {
    inputs.emplace_back(rep.problem, rep.rhs_scale);
  }
  std::sort(inputs.begin(), inputs.end());
  for (const auto& [p, sc] : inputs) {
    r.mix_input(p);
    r.mix_input(sc);
  }
  for (const Reply& rep : replies) {
    ++r.attempted;
    err_max = std::max(err_max, rep.resp.err_inf);
    if (!reply_ok(rep.resp, cfg.err_tol) || !rep.resp.cache_hit) {
      ++r.failed;
      r.fail("request: outcome=" +
             std::string(svc::outcome_name(rep.resp.outcome)) + " reason=" +
             rep.resp.reason + " cache_hit=" +
             std::to_string(rep.resp.cache_hit) +
             " err_inf=" + json_number(rep.resp.err_inf));
      continue;
    }
    ++solved;
    lat.push_back(rep.client_ms);
    queue.push_back(rep.resp.queue_ms);
    exec.push_back(rep.resp.solve_ms);
    lanes.push_back(rep.resp.panel_lanes);
    iters.push_back(static_cast<double>(rep.resp.cg.iterations));
  }
  check_budget(r, so.workers, probe);

  r.info["elements"] = std::to_string(cfg.n * cfg.n * cfg.n);
  r.info["problems"] = std::to_string(cfg.problems);
  r.info["requests_timed"] = std::to_string(replies.size());
  r.info["err_inf.tolerance"] = json_number(cfg.err_tol);
  r.info["err_inf.max"] = json_number(err_max);
  r.info["loop"] = "closed, " + std::to_string(cfg.clients) +
                   " clients x bursts of " + std::to_string(kSvcPanel);

  r.e2e["setup_s"] = {median(warm_wall), "s"};
  r.e2e["solve_s"] = {median(exec) / 1e3, "s"};
  r.e2e["throughput_rps"] = {static_cast<double>(solved) / loop_s, "1/s"};
  r.e2e["latency_p50_ms"] = {quantile(lat, 0.5), "ms"};
  r.e2e["latency_p95_ms"] = {quantile(lat, 0.95), "ms"};
  r.e2e["peak_rss_mb"] = {service_rss_mb, "MB"};
  r.info["peak_rss_mb.with_side_operator"] = json_number(peak_rss_mb());
  r.info["sample.setup_s"] = describe(warm_wall);
  r.info["sample.exec_ms"] = describe(exec);
  r.info["sample.latency_ms"] = describe(lat);
  add_update(r, updates);
  // A side round's blocks run about 9 or about 15 ms, the same in all of
  // them, and the rounds split between the two: the median over blocks
  // or rounds flipped between them from run to run (ten-run spread 0.26).
  add_spmv(r, spmv, panel_bytes, panel_flops, traced, true);

  r.layer["svc.queue_ms_p50"] = {median(queue), "ms"};
  r.layer["svc.exec_ms_p50"] = {median(exec), "ms"};
  r.layer["svc.panel_lanes_mean"] = {mean(lanes), "count"};
  r.layer["svc.degraded_to_k1"] = {static_cast<double>(degraded), "count"};
  r.layer["svc.cache_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
      "ratio"};
  if (misses != 0) {
    r.fail("cache missed " + std::to_string(misses) + " times after warm-up");
  }
  r.layer["core.store_mb"] = {store_bytes * cfg.problems / 1e6, "MB"};
  r.layer["pla.cg_iterations"] = {mean(iters), "count"};

  if (!traced) {
    return;
  }
  // Setup layers of the side operator's cold builds, next to the warm-up
  // wall that setup_s measures.
  r.decompositions.push_back(
      setup_layers(r, side_setups, "svc.side_cold_build_s.mean"));
  // The last warm-up's wall against the service's own account of its
  // last-finishing cold request.
  const svc::SolveResponse* last = &warm_last.front();
  for (const svc::SolveResponse& resp : warm_last) {
    if (resp.total_ms > last->total_ms) {
      last = &resp;
    }
  }
  Decomposition dw{.parent = "setup_s.last_warmup", .unit = "s",
                   .parent_value = warm_wall.back()};
  dw.rows = {{"svc.warmup_queue_s", last->queue_ms / 1e3},
             {"svc.warmup_exec_s", last->solve_ms / 1e3}};
  r.decompositions.push_back(dw);
  r.decompositions.push_back(
      update_layers(r, updates, "svc.side_update_s.mean"));
  const double cg_iterations = r.layer["pla.cg_iterations"].value;
  solve_layers(r, {panel}, "svc.side_panel_solve_s");
  r.layer["pla.cg_iterations"] = {cg_iterations, "count"};
  // The client's clock against the service's queue and solve times.
  Decomposition dl{.parent = "latency_ms.mean", .unit = "ms",
                   .parent_value = mean(lat)};
  dl.rows = {{"svc.queue_ms_mean", mean(queue)},
             {"svc.exec_ms_mean", mean(exec)}};
  r.decompositions.push_back(dl);
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (a == "--steps") {
      o.steps = std::atoi(v);
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: hymv_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--steps <n>] "
                 "[--trace-file <path>]\n");
    return 2;
  }
  if (o.trace) {
    g_spans.arm();
  }
  Report r;
  r.workload = o.workload;
  try {
    fingerprint(r);
    if (o.workload == "hex8_crack_2r1t") {
      run_batch(o, crack_config(o.tiny), r);
    } else if (o.workload == "hex20_mg_1r2t") {
      run_batch(o, mg_config(o.tiny), r);
    } else if (o.workload == "svc_loadcases_c4") {
      run_svc(o, r);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hymv_perfbench: %s\n", e.what());
    return 1;
  }
  if (o.trace) {
    reconcile(r);
    r.layer["trace.spans"] = {static_cast<double>(g_spans.size()), "count"};
    if (!o.trace_file.empty()) {
      g_spans.write_chrome_json(o.trace_file);
    }
  }
  std::printf("%s\n", report_json(r).c_str());
  return 0;
}
