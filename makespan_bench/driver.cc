// makespan_driver — runs one GABench workload end to end and reports the
// paper's Table 5 metrics (upload, running time, makespan) plus set-up,
// verification and memory, as medians over repeated passes.
//
//   makespan_driver --workload suite|ooc|datagen --seed N --seconds S
//                   --trace 0|1 --out FILE.json [--workdir DIR] [--scale K]
//
// One pass runs the workload's whole job list: set-up (generate, build,
// relabel/compress/convert), then per job upload, run, verify (and
// simulate on suite). The first pass warms the process and is discarded;
// measured passes then run until --seconds have elapsed, and at least
// kInstances of them. Measured pass i generates dataset instance
// i % kInstances of the seed, so every run covers the same kInstances
// inputs whatever its speed: time metrics are medians over passes, and
// peak RSS is the maximum over the same inputs. Every output is checked
// against the library's reference kernels; a mismatch or an error Status
// is counted as a failed job and makes the process exit 1.
//
// With --trace 1, spans recorded around each public call (workload →
// dataset → job → upload/run/verify/simulate, and setup → generate/build/
// relabel/compress/convert) are reduced to per-layer self times and
// combined with the counts the library's result objects expose.
//
// The driver calls only the library's public API; it is built by
// makespan_bench/CMakeLists.txt and normally launched through run.py.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algos/bfs.h"
#include "algos/verify.h"
#include "algos/wcc.h"
#include "gen/datasets.h"
#include "gen/fft_dg.h"
#include "gen/ldbc_dg.h"
#include "graph/builder.h"
#include "graph/compressed_csr.h"
#include "graph/graph_view.h"
#include "graph/ooc_csr.h"
#include "graph/relabel.h"
#include "graph/shard_cache.h"
#include "platforms/platform.h"
#include "platforms/subset_kernels.h"
#include "runtime/executor.h"
#include "util/exec_mode.h"
#include "util/rss.h"
#include "util/threading.h"

#ifndef GAB_BENCH_COMPILER
#define GAB_BENCH_COMPILER "unknown"
#endif
#ifndef GAB_BENCH_CXX_FLAGS
#define GAB_BENCH_CXX_FLAGS "unknown"
#endif

namespace gab {
namespace {

using Clock = std::chrono::steady_clock;
using LayerMap = std::map<std::string, double>;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ------------------------------------------------------------- tracing ----

/// End-to-end stage a span's duration is charged to. Spans nested under a
/// kSetup span (generate, build, ...) carry kNone: their parent already
/// counts them.
enum class Stage { kNone, kSetup, kUpload, kRun, kVerify, kSimulate };
constexpr int kNumStages = 6;

/// Per-pass span recorder. Stage sums are always kept (they are the
/// end-to-end metrics); span records are kept only when tracing is on and
/// reduced to per-layer self times when the pass ends. The library's
/// obs::SpanTracer is not used: it records only while telemetry is on
/// process-wide, which also turns on the library's own spans and
/// counters, so a traced run would time different code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double stage(Stage s) const { return stage_[static_cast<int>(s)]; }

  /// Clears the stage sums and span records for the next pass.
  void BeginPass() {
    std::fill(std::begin(stage_), std::end(stage_), 0.0);
    records_.clear();
    open_.clear();
  }

  /// Adds each span's self time (duration minus its direct children's
  /// durations) to the layer metrics it names.
  void AddSelfTimes(LayerMap* layers) const {
    std::vector<double> child(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child[r.parent] += r.seconds;
    }
    for (size_t i = 0; i < records_.size(); ++i) {
      const double self = records_[i].seconds - child[i];
      for (const std::string& metric : records_[i].metrics) {
        (*layers)[metric] += self;
      }
    }
  }

 private:
  friend class Span;
  struct Record {
    int parent = -1;
    double seconds = 0;
    std::vector<std::string> metrics;
  };

  bool enabled_;
  double stage_[kNumStages] = {};
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open record indices
};

/// RAII span: times its scope, charges the stage, and (tracing on)
/// records itself under the innermost open span with the layer metrics
/// its self time feeds.
class Span {
 public:
  Span(Tracer& tracer, Stage stage, std::vector<std::string> metrics = {})
      : tracer_(tracer), stage_(stage), start_(Clock::now()) {
    if (!tracer_.enabled()) return;
    index_ = static_cast<int>(tracer_.records_.size());
    Tracer::Record record;
    record.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    record.metrics = std::move(metrics);
    tracer_.records_.push_back(std::move(record));
    tracer_.open_.push_back(index_);
  }
  ~Span() {
    const double seconds = SecondsBetween(start_, Clock::now());
    tracer_.stage_[static_cast<int>(stage_)] += seconds;
    if (index_ >= 0) {
      tracer_.records_[index_].seconds = seconds;
      tracer_.open_.pop_back();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Stage stage_;
  Clock::time_point start_;
  int index_ = -1;
};

// ------------------------------------------------------------ workload ----

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string workdir = ".";
  int scale = 0;  // > 0: every dataset of the workload at S<scale>
};

/// Outcome of one pass: per-layer values plus job accounting.
struct PassResult {
  LayerMap layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// Shared state of one pass: options, tracer and the result being filled.
struct Pass {
  const Options& opt;
  uint32_t instance;  // dataset instance of opt.seed, < kInstances
  Tracer& tracer;
  PassResult result;

  /// Records one checked job: counts it, and on failure keeps the reason.
  void Check(bool ok, const std::string& what, const std::string& detail) {
    ++result.attempted;
    if (ok) return;
    ++result.failed;
    result.failures.push_back(what + ": " + detail);
  }
  void Count(const std::string& metric, double value) {
    result.layers[metric] += value;
  }
};

/// Dataset instances one run cycles through (see the file comment).
constexpr uint32_t kInstances = 5;

/// The workload seed and the pass's instance override the registry seed;
/// seed 0, instance 0 reproduces the registry's datasets exactly.
DatasetSpec Seeded(DatasetSpec spec, const Pass& pass) {
  spec.seed += 1000003ull * pass.opt.seed + 7919ull * pass.instance;
  return spec;
}

/// The registry's half-step datasets (DefaultDatasets: Sx.5 has 2.83x the
/// vertices of Sx).
VertexId HalfStepVertices(uint32_t scale) {
  return static_cast<VertexId>(static_cast<double>(ScaleVertices(scale)) *
                               2.83);
}

const char* VariantKey(const std::string& name) {
  if (name.find("Dense") != std::string::npos) return "dense";
  if (name.find("Diam") != std::string::npos) return "diam";
  return "std";
}

/// Adds a run's engine trace totals to the engines.* counts. Summing walks
/// a P x P byte matrix per superstep, so untraced runs skip it and keep
/// the driver's own work out of makespan_s.
void CountTrace(Pass& pass, const ExecutionTrace& trace,
                uint32_t reported_supersteps) {
  if (!pass.tracer.enabled()) return;
  pass.Count("engines.supersteps",
             reported_supersteps != 0
                 ? reported_supersteps
                 : static_cast<double>(trace.num_supersteps()));
  pass.Count("engines.work_units", static_cast<double>(trace.TotalWork()));
  pass.Count("engines.msg_bytes", static_cast<double>(trace.TotalBytes()));
  pass.Count("engines.cross_bytes",
             static_cast<double>(trace.CrossPartitionBytes()));
}

/// Raw over encoded adjacency bytes of a GABOOC02 write.
double AdjacencyRatio(const OocWriteStats& w) {
  return w.adjacency_file_bytes == 0
             ? 1.0
             : static_cast<double>(w.adjacency_raw_bytes) /
                   static_cast<double>(w.adjacency_file_bytes);
}

std::string VerdictDetail(const VerifyResult& v) {
  return v.ok ? "ok" : v.detail;
}

/// suite — paper Fig. 10: every supported platform x algorithm on the
/// Std, Dense and Diam variants, each job uploaded, run, verified and
/// simulated on the paper's 16 x 32 cluster.
void RunSuite(Pass& pass) {
  const uint32_t scale = pass.opt.scale > 0 ? pass.opt.scale : 5;
  const AlgoParams params;
  ClusterConfig measured;
  measured.machines = 1;
  measured.threads_per_machine =
      static_cast<uint32_t>(DefaultPool().num_threads());
  ClusterConfig target;
  target.machines = 16;
  target.threads_per_machine = 32;

  Span workload(pass.tracer, Stage::kNone);
  for (const DatasetSpec& registry :
       {StdDataset(scale), DenseDataset(scale), DiamDataset(scale)}) {
    const DatasetSpec spec = Seeded(registry, pass);
    const std::string variant = VariantKey(spec.name);
    Span dataset(pass.tracer, Stage::kNone);
    CsrGraph g;
    {
      Span setup(pass.tracer, Stage::kSetup);
      Span gen(pass.tracer, Stage::kNone, {"gen.fft_csr_s"});
      g = BuildDataset(spec);
    }
    for (Algorithm algo : AllAlgorithms()) {
      for (const Platform* platform : AllPlatforms()) {
        if (!platform->Supports(algo)) continue;
        const std::string ab = platform->abbrev();
        const std::string alg = AlgorithmName(algo);
        const std::string what = spec.name + " " + ab + " " + alg;
        Span job(pass.tracer, Stage::kNone);
        try {
          double upload = 0;
          {
            Span s(pass.tracer, Stage::kUpload,
                   {"platforms." + ab + ".upload_s"});
            upload = platform->MeasureUpload(g, params);
          }
          ExperimentRecord record;
          {
            Span s(pass.tracer, Stage::kRun,
                   {"platforms." + ab + ".run_s",
                    "engines." + variant + ".run_s"});
            record = ExperimentExecutor::Execute(*platform, algo, g,
                                                 spec.name, params, upload);
          }
          VerifyResult verdict;
          {
            Span s(pass.tracer, Stage::kVerify,
                   {"algos." + alg + ".verify_s"});
            verdict = ExperimentExecutor::Verify(algo, g, params,
                                                 record.run.output);
          }
          double simulated = 0;
          {
            Span s(pass.tracer, Stage::kSimulate, {"runtime.simulate_s"});
            simulated = ExperimentExecutor::SimulateOnCluster(
                record, *platform, measured, target);
          }
          CountTrace(pass, record.run.trace, record.reported_supersteps);
          pass.Count("runtime.retries", record.attempts - 1.0);
          const bool sim_ok = std::isfinite(simulated) && simulated > 0;
          pass.Check(record.supported && verdict.ok && sim_ok, what,
                     !record.supported ? "unsupported"
                     : !verdict.ok     ? verdict.detail
                                       : "simulated time not positive");
        } catch (const std::exception& e) {
          pass.Check(false, what, e.what());
        }
      }
    }
  }
}

/// ooc — S7-Std as compressed GABOOC02 shards; PR, WCC and SSSP on the
/// vertex-subset engine through a ShardCache holding ~20% of the
/// in-memory bytes, each output verified against the reference kernels
/// on the resident CSR.
void RunOoc(Pass& pass) {
  const uint32_t scale = pass.opt.scale > 0 ? pass.opt.scale : 7;
  const DatasetSpec spec = Seeded(StdDataset(scale), pass);
  const AlgoParams params;
  const Platform* ligra = PlatformByAbbrev("LI");
  const std::string path = pass.opt.workdir + "/ooc-" +
                           std::to_string(getpid()) + ".ooc";
  SubsetKernelOptions options;
  options.num_partitions = params.num_partitions;
  options.strategy = PartitionStrategy::kRangeByDegree;

  Span workload(pass.tracer, Stage::kNone);
  Span dataset(pass.tracer, Stage::kNone);
  CsrGraph g;
  OocCsr ooc;
  Status status;
  OocWriteStats wstats;
  {
    Span setup(pass.tracer, Stage::kSetup);
    {
      Span s(pass.tracer, Stage::kNone, {"gen.fft_csr_s"});
      g = BuildDataset(spec);
    }
    Span s(pass.tracer, Stage::kNone, {"graph.convert_s"});
    status = WriteOocCsr(g, path, /*shard_target_bytes=*/0,
                         /*compress=*/true, &wstats);
    if (status.ok()) status = OocCsr::Open(path, &ooc);
  }
  const Algorithm algos[] = {Algorithm::kPageRank, Algorithm::kWcc,
                             Algorithm::kSssp};
  if (!status.ok()) {
    for (Algorithm algo : algos) {
      pass.Check(false, spec.name + " OOC " + AlgorithmName(algo),
                 status.ToString());
    }
    std::remove(path.c_str());
    return;
  }
  pass.Count("graph.compress_ratio", AdjacencyRatio(wstats));
  const size_t budget = ooc.InMemoryEquivalentBytes() / 5;
  ShardCache::Stats total;
  for (Algorithm algo : algos) {
    const std::string alg = AlgorithmName(algo);
    Span job(pass.tracer, Stage::kNone);
    {
      Span s(pass.tracer, Stage::kUpload, {"platforms.LI.upload_s"});
      ligra->MeasureUpload(g, params);
    }
    RunResult run;
    {
      Span s(pass.tracer, Stage::kRun, {"platforms.LI.run_s"});
      ShardCache cache(ooc, budget);
      GraphView view(ooc, &cache);
      switch (algo) {
        case Algorithm::kPageRank:
          run = SubsetPageRank(view, params, options);
          break;
        case Algorithm::kWcc:
          run = SubsetWcc(view, params, options);
          break;
        default:
          run = SubsetSssp(view, params, options);
          break;
      }
      cache.WaitIdle();
      const ShardCache::Stats st = cache.stats();
      total.hits += st.hits;
      total.misses += st.misses;
      total.evictions += st.evictions;
      total.io_read_bytes += st.io_read_bytes;
      total.prefetch_issued += st.prefetch_issued;
      total.prefetch_hits += st.prefetch_hits;
      total.peak_resident_bytes =
          std::max(total.peak_resident_bytes, st.peak_resident_bytes);
    }
    VerifyResult verdict;
    {
      Span s(pass.tracer, Stage::kVerify, {"algos." + alg + ".verify_s"});
      verdict = ExperimentExecutor::Verify(algo, g, params, run.output);
    }
    CountTrace(pass, run.trace, 0);
    pass.Check(verdict.ok, spec.name + " OOC " + alg, VerdictDetail(verdict));
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  const double lookups = static_cast<double>(total.hits + total.misses);
  pass.Count("graph.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(total.hits) / lookups : 0);
  pass.Count("graph.cache_misses", static_cast<double>(total.misses));
  pass.Count("graph.evictions", static_cast<double>(total.evictions));
  pass.Count("graph.io_read_mb",
             static_cast<double>(total.io_read_bytes) / kMiB);
  pass.Count("graph.prefetch_hit_ratio",
             total.prefetch_issued > 0
                 ? static_cast<double>(total.prefetch_hits) /
                       static_cast<double>(total.prefetch_issued)
                 : 0);
  pass.Count("graph.cache_peak_mb",
             static_cast<double>(total.peak_resident_bytes) / kMiB);
  std::remove(path.c_str());
}

/// datagen — paper Fig. 9 plus the preparation pipeline: FFT-DG S7.5-Std
/// straight to CSR, LDBC-DG at S6.5 built through GraphBuilder, then a
/// degree relabel, a CompressedCsr and a GABOOC02 write of the relabeled
/// graph. WCC (over the compressed view) and direction-optimizing BFS run
/// on the relabeled order; results are mapped back and checked.
void RunDatagen(Pass& pass) {
  const uint32_t fft_scale = pass.opt.scale > 0 ? pass.opt.scale : 7;
  const uint32_t ldbc_scale = pass.opt.scale > 0 ? pass.opt.scale : 6;
  DatasetSpec spec = Seeded(StdDataset(fft_scale), pass);
  if (pass.opt.scale <= 0) {
    spec.name = "S7.5-Std";
    spec.num_vertices = HalfStepVertices(fft_scale);
  }
  const VertexId ldbc_n = pass.opt.scale > 0 ? ScaleVertices(ldbc_scale)
                                             : HalfStepVertices(ldbc_scale);
  LdbcDgConfig ldbc_config = LdbcConfigForAlpha(ldbc_n, spec.alpha);
  ldbc_config.seed = spec.seed + 1;
  const AlgoParams params;
  const Platform* ligra = PlatformByAbbrev("LI");
  const std::string path = pass.opt.workdir + "/datagen-" +
                           std::to_string(getpid()) + ".ooc";
  SubsetKernelOptions options;
  options.num_partitions = params.num_partitions;

  Span workload(pass.tracer, Stage::kNone);
  Span dataset(pass.tracer, Stage::kNone);
  GenStats fft_stats;
  GenStats ldbc_stats;
  CsrGraph g;
  CsrGraph ldbc;
  RelabelPlan plan;
  CsrGraph rg;
  CompressedCsr cg;
  Status compress_status;
  Status convert_status;
  OocWriteStats wstats;
  {
    Span setup(pass.tracer, Stage::kSetup);
    {
      Span s(pass.tracer, Stage::kNone, {"gen.fft_csr_s"});
      g = GenerateFftDgToCsr(ConfigForDataset(spec), &fft_stats);
    }
    EdgeList edges;
    {
      Span s(pass.tracer, Stage::kNone, {"gen.ldbc_s"});
      edges = GenerateLdbcDg(ldbc_config, &ldbc_stats);
    }
    {
      Span s(pass.tracer, Stage::kNone, {"graph.build_s"});
      ldbc = GraphBuilder::Build(std::move(edges));
    }
    {
      Span s(pass.tracer, Stage::kNone, {"graph.relabel_s"});
      plan = BuildRelabelPlan(g, RelabelStrategy::kDegreeDesc);
      rg = ApplyRelabelPlan(g, plan);
    }
    {
      Span s(pass.tracer, Stage::kNone, {"graph.compress_s"});
      compress_status = CompressedCsr::FromCsr(rg, &cg);
    }
    Span s(pass.tracer, Stage::kNone, {"graph.convert_s"});
    convert_status = WriteOocCsr(rg, path, /*shard_target_bytes=*/0,
                                 /*compress=*/true, &wstats);
  }
  pass.Count("gen.fft_trials_per_edge", fft_stats.TrialsPerEdge());
  pass.Count("gen.ldbc_trials_per_edge", ldbc_stats.TrialsPerEdge());
  pass.Count("graph.compress_ratio", AdjacencyRatio(wstats));

  {
    Span job(pass.tracer, Stage::kNone);
    Span s(pass.tracer, Stage::kUpload, {"platforms.LI.upload_s"});
    ligra->MeasureUpload(rg, params);
  }

  // WCC over the compressed view of the relabeled graph.
  {
    Span job(pass.tracer, Stage::kNone);
    if (!compress_status.ok()) {
      pass.Check(false, spec.name + " WCC", compress_status.ToString());
    } else {
      RunResult run;
      {
        Span s(pass.tracer, Stage::kRun, {"platforms.LI.run_s"});
        run = SubsetWcc(GraphView(cg), params, options);
      }
      VerifyResult verdict;
      {
        Span s(pass.tracer, Stage::kVerify, {"algos.WCC.verify_s"});
        const std::vector<VertexId> ref = WccReference(g);
        verdict = ComparePartitions(
            MapIdValuesToOriginalIds(run.output.ints, plan),
            std::vector<uint64_t>(ref.begin(), ref.end()));
      }
      CountTrace(pass, run.trace, 0);
      pass.Check(verdict.ok, spec.name + " WCC", VerdictDetail(verdict));
    }
  }

  // Direction-optimizing BFS from original vertex 0.
  {
    Span job(pass.tracer, Stage::kNone);
    DirectionOptBfsStats bfs_stats;
    std::vector<uint32_t> levels;
    {
      Span s(pass.tracer, Stage::kRun, {"algos.BFS.run_s"});
      levels = DirectionOptBfs(rg, plan.old_to_new[0],
                               DirectionOptBfsOptions(), &bfs_stats);
    }
    bool same = false;
    {
      Span s(pass.tracer, Stage::kVerify, {"algos.BFS.verify_s"});
      same = MapToOriginalIds(levels, plan) == BfsReference(g, 0);
    }
    pass.Count("engines.supersteps", bfs_stats.rounds);
    pass.Check(same, spec.name + " DO-BFS", same ? "ok" : "levels differ");
  }

  // The artifacts the pipeline wrote: the LDBC CSR and the GABOOC02 file.
  {
    Span job(pass.tracer, Stage::kNone);
    Span s(pass.tracer, Stage::kVerify, {"graph.verify_s"});
    pass.Check(ldbc.num_vertices() == ldbc_n && ldbc.num_edges() > 0 &&
                   ldbc.num_edges() <= ldbc_stats.edges,
               "LDBC-DG build", "vertex/edge counts disagree with GenStats");
    OocCsr ooc;
    Status st = convert_status;
    if (st.ok()) st = OocCsr::Open(path, &ooc);
    pass.Check(st.ok() && ooc.num_arcs() == rg.num_arcs() &&
                   ooc.num_vertices() == rg.num_vertices(),
               "GABOOC02 write",
               st.ok() ? "header counts differ from the CSR" : st.ToString());
  }
  std::remove(path.c_str());

  // Locality of the relabeled order (deterministic; measured once per
  // pass outside the end-to-end stages, traced runs only).
  if (pass.tracer.enabled()) {
    const LocalityStats before = ComputeLocalityStats(g);
    const LocalityStats after = ComputeLocalityStats(rg);
    pass.Count("graph.avg_neighbor_gap.before", before.avg_neighbor_gap);
    pass.Count("graph.avg_neighbor_gap.after", after.avg_neighbor_gap);
    pass.Count("graph.cache_line_reuse.before", before.cache_line_reuse);
    pass.Count("graph.cache_line_reuse.after", after.cache_line_reuse);
  }
}

// ------------------------------------------------------------- output ----

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct PassTimes {
  double makespan = 0;
  double stage[kNumStages] = {};
};

int Run(const Options& opt) {
  void (*workload)(Pass&) = nullptr;
  if (opt.workload == "suite") workload = RunSuite;
  if (opt.workload == "ooc") workload = RunOoc;
  if (opt.workload == "datagen") workload = RunDatagen;
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (suite|ooc|datagen)\n",
                 opt.workload.c_str());
    return 2;
  }

  Tracer tracer(opt.trace);
  std::vector<PassTimes> timed;
  std::vector<LayerMap> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  Clock::time_point measure_start;
  for (int n = 0;; ++n) {
    const bool warmup = n == 0;
    tracer.BeginPass();
    const size_t instance = warmup ? 0 : timed.size() % kInstances;
    Pass pass{opt, static_cast<uint32_t>(instance), tracer, {}};
    const Clock::time_point t0 = Clock::now();
    workload(pass);
    const double makespan = SecondsBetween(t0, Clock::now());
    attempted += pass.result.attempted;
    failed += pass.result.failed;
    for (std::string& f : pass.result.failures) {
      std::fprintf(stderr, "FAIL (pass %d): %s\n", n, f.c_str());
      if (failures.size() < 20) failures.push_back(std::move(f));
    }
    if (warmup) {
      measure_start = Clock::now();
    } else {
      PassTimes t;
      t.makespan = makespan;
      for (int s = 0; s < kNumStages; ++s) {
        t.stage[s] = tracer.stage(static_cast<Stage>(s));
      }
      timed.push_back(t);
      tracer.AddSelfTimes(&pass.result.layers);
      pass.result.layers["trace.makespan_s"] = makespan;
      layers.push_back(std::move(pass.result.layers));
    }
    if (!warmup && timed.size() >= kInstances &&
        SecondsBetween(measure_start, Clock::now()) >= opt.seconds) {
      break;
    }
  }

  auto stage_median = [&](auto get) {
    std::vector<double> v;
    for (const PassTimes& t : timed) v.push_back(get(t));
    return Median(v);
  };
  auto stage_of = [](Stage s) {
    return [s](const PassTimes& t) { return t.stage[static_cast<int>(s)]; };
  };

  std::map<std::string, double> layer_medians;
  {
    std::map<std::string, std::vector<double>> samples;
    for (const LayerMap& m : layers) {
      for (const auto& [name, value] : m) samples[name].push_back(value);
    }
    for (auto& [name, values] : samples) {
      // A metric absent from some passes (no such span that pass) is 0
      // there.
      values.resize(layers.size(), 0.0);
      layer_medians[name] = Median(values);
    }
  }

  const HardwareInfo& hw = ProbedHardware();
  const size_t threads = DefaultPool().num_threads();
  const bool valid = hw.cpu_affinity == 0 || threads <= hw.cpu_affinity;

  std::string json = "{";
  json += "\"workload\": \"" + opt.workload + "\"";
  json += ", \"seed\": " + std::to_string(opt.seed);
  json += ", \"trace\": " + std::string(opt.trace ? "true" : "false");
  json += ", \"passes\": " + std::to_string(timed.size());
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"end_to_end\": {";
  json += "\"makespan_s\": " +
          Num(stage_median([](const PassTimes& t) { return t.makespan; }));
  json += ", \"setup_s\": " + Num(stage_median(stage_of(Stage::kSetup)));
  json += ", \"upload_s\": " + Num(stage_median(stage_of(Stage::kUpload)));
  json += ", \"run_s\": " + Num(stage_median(stage_of(Stage::kRun)));
  json += ", \"verify_s\": " + Num(stage_median(stage_of(Stage::kVerify)));
  json += ", \"simulate_s\": " +
          Num(stage_median(stage_of(Stage::kSimulate)));
  json += ", \"peak_rss_mb\": " +
          Num(static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  json += ", \"pass_frac\": " +
          Num(attempted == 0 ? 0.0
                             : static_cast<double>(attempted - failed) /
                                   static_cast<double>(attempted));
  json += "}, \"passes_detail\": [";
  for (size_t i = 0; i < timed.size(); ++i) {
    const PassTimes& t = timed[i];
    json += i == 0 ? "{" : ", {";
    json += "\"makespan_s\": " + Num(t.makespan);
    json += ", \"setup_s\": " + Num(t.stage[int(Stage::kSetup)]);
    json += ", \"upload_s\": " + Num(t.stage[int(Stage::kUpload)]);
    json += ", \"run_s\": " + Num(t.stage[int(Stage::kRun)]);
    json += ", \"verify_s\": " + Num(t.stage[int(Stage::kVerify)]);
    json += ", \"simulate_s\": " + Num(t.stage[int(Stage::kSimulate)]);
    json += "}";
  }
  json += "], \"per_layer\": {";
  bool first = true;
  for (const auto& [name, value] : layer_medians) {
    json += (first ? "\"" : ", \"") + name + "\": " + Num(value);
    first = false;
  }
  json += "}, \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(failures[i]) + "\"";
  }
  json += "], \"build\": {";
  json += "\"compiler\": \"" + JsonEscape(GAB_BENCH_COMPILER) + "\"";
  json += ", \"cxx_flags\": \"" + JsonEscape(GAB_BENCH_CXX_FLAGS) + "\"";
  json += "}, \"runtime\": {";
  json += "\"threads\": " + std::to_string(threads);
  json += ", \"hardware_concurrency\": " +
          std::to_string(hw.hardware_concurrency);
  json += ", \"cpu_affinity\": " + std::to_string(hw.cpu_affinity);
  json += ", \"valid\": " + std::string(valid ? "true" : "false");
  json += ", \"exec_mode\": \"" +
          std::string(ExecModeName(CurrentExecMode())) + "\"";
  json += ", \"serial_cutoff\": " + std::to_string(SerialCutoff());
  json += ", \"ooc_decode\": \"" +
          std::string(DefaultOocDecodeMode() == OocDecodeMode::kCursorDecode
                          ? "cursor"
                          : "cache") +
          "\"";
  json += ", \"ooc_shard_bytes\": " +
          std::to_string(DefaultShardTargetBytes());
  json += ", \"bfs_alpha\": " + Num(DefaultBfsAlpha());
  json += ", \"bfs_beta\": " + Num(DefaultBfsBeta());
  json += "}}\n";

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 2;
  }
  std::printf("%s: %zu passes, %llu/%llu jobs passed%s\n",
              opt.workload.c_str(), timed.size(),
              static_cast<unsigned long long>(attempted - failed),
              static_cast<unsigned long long>(attempted),
              valid ? "" : " (INVALID: more threads than CPUs)");
  return failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      opt->out = value;
    } else if (key == "--workdir") {
      opt->workdir = value;
    } else if (key == "--scale") {
      opt->scale = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->out.empty() &&
         opt->seconds > 0 && opt->scale >= 0 && opt->scale <= 9 &&
         (opt->scale == 0 || opt->scale >= 3);
}

}  // namespace
}  // namespace gab

int main(int argc, char** argv) {
  gab::Options opt;
  if (!gab::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: makespan_driver --workload suite|ooc|datagen "
                 "--seed N --seconds S --trace 0|1 --out FILE.json "
                 "[--workdir DIR] [--scale 3..9]\n");
    return 2;
  }
  return gab::Run(opt);
}
