#include "src/core/artifact_codec.hpp"

#include <utility>

#include "src/core/model_factory.hpp"
#include "src/store/serialize.hpp"

namespace nvp::core {

namespace {

using store::Reader;
using store::SerializationError;
using store::Writer;

// Per-kind payload schema tags. Bump when a codec's field sequence changes;
// old payloads then decode as "unknown schema" and are recomputed.
// Structure v2: per-group state classes (module-group models); v3: the
// assembly plan's lumping hint is gone; v4: one class list of per-group
// counts for every net (the structure key tag was bumped with each, so
// older entries are never looked up). Analysis
// v2: the legacy sparse-backend flag byte is gone (backend_used carries
// it); the rewards key tag was bumped with it, so v1 entries are never
// looked up. Version-bumped keys likewise retire other stale layouts:
// their entries stop being addressed and expire.
constexpr std::uint32_t kStructureSchema = 4;
constexpr std::uint32_t kRatesSchema = 1;
constexpr std::uint32_t kRewardTableSchema = 1;
constexpr std::uint32_t kAnalysisSchema = 2;

void check(bool ok, const char* what) {
  if (!ok) throw SerializationError(what);
}

void expect_schema(Reader& r, std::uint32_t want) {
  if (r.u32() != want) throw SerializationError("unknown payload schema");
}

void write_prob_edges(Writer& w, const std::vector<petri::ProbEdge>& edges) {
  w.u64(edges.size());
  for (const petri::ProbEdge& e : edges) {
    w.u64(e.target);
    w.f64(e.prob);
  }
}

std::vector<petri::ProbEdge> read_prob_edges(Reader& r, std::size_t states) {
  const std::uint64_t n = r.u64();
  check(n <= r.remaining() / (sizeof(std::uint64_t) + sizeof(double)),
        "edge count exceeds payload");
  std::vector<petri::ProbEdge> edges(static_cast<std::size_t>(n));
  for (petri::ProbEdge& e : edges) {
    e.target = static_cast<std::size_t>(r.u64());
    e.prob = r.f64();
    check(e.target < states, "edge target out of range");
  }
  return edges;
}

using Firing = petri::TangibleReachabilityGraph::Structure::Firing;

void write_firings(Writer& w,
                   const std::vector<std::vector<Firing>>& per_state) {
  w.u64(per_state.size());
  for (const std::vector<Firing>& firings : per_state) {
    w.u64(firings.size());
    for (const Firing& f : firings) {
      w.u64(f.transition);
      write_prob_edges(w, f.dist);
    }
  }
}

std::vector<std::vector<Firing>> read_firings(Reader& r, std::size_t states) {
  const std::uint64_t n = r.u64();
  check(n == states, "firing table does not match state count");
  std::vector<std::vector<Firing>> per_state(states);
  for (std::vector<Firing>& firings : per_state) {
    const std::uint64_t count = r.u64();
    check(count <= r.remaining() / sizeof(std::uint64_t),
          "firing count exceeds payload");
    firings.resize(static_cast<std::size_t>(count));
    for (Firing& f : firings) {
      f.transition = static_cast<std::size_t>(r.u64());
      f.dist = read_prob_edges(r, states);
    }
  }
  return per_state;
}

void write_pattern(Writer& w, const linalg::CsrPattern& pattern) {
  w.u64(pattern.rows());
  w.u64(pattern.cols());
  w.vec_sizes(pattern.perm());
  w.vec_sizes(pattern.sorted_rows());
  w.vec_sizes(pattern.sorted_cols());
}

linalg::CsrPattern read_pattern(Reader& r) {
  const std::size_t rows = static_cast<std::size_t>(r.u64());
  const std::size_t cols = static_cast<std::size_t>(r.u64());
  std::vector<std::size_t> perm = r.vec_sizes();
  std::vector<std::size_t> sorted_row = r.vec_sizes();
  std::vector<std::size_t> sorted_col = r.vec_sizes();
  check(perm.size() == sorted_row.size() && perm.size() == sorted_col.size(),
        "pattern vectors disagree");
  for (std::size_t k = 0; k < perm.size(); ++k)
    check(perm[k] < perm.size() && sorted_row[k] < rows &&
              sorted_col[k] < cols,
          "pattern slot out of range");
  return linalg::CsrPattern::from_parts(rows, cols, std::move(perm),
                                        std::move(sorted_row),
                                        std::move(sorted_col));
}

markov::SolverBackend read_backend(Reader& r) {
  const std::int32_t v = r.i32();
  check(v >= 0 && v <= static_cast<std::int32_t>(
                           markov::SolverBackend::kMatrixFree),
        "unknown solver backend");
  return static_cast<markov::SolverBackend>(v);
}

}  // namespace

std::vector<std::uint8_t> encode_structure_artifact(
    const StructureArtifact& artifact) {
  const auto& st = artifact.graph.structure();
  const std::size_t n = st.markings.size();
  Writer w;
  w.u32(kStructureSchema);

  // Symbolic skeleton (the numeric edges are re-poured on decode).
  w.u64(n);
  for (const petri::Marking& m : st.markings) w.vec_i32(m);
  write_prob_edges(w, st.initial);
  write_firings(w, st.exp_firings);
  write_firings(w, st.det_firings);
  w.u64(st.net_fingerprint);
  w.boolean(st.has_det);

  // Assembly plan.
  const markov::AssemblyPlan& plan = artifact.plan;
  w.u64(plan.states);
  w.boolean(plan.has_deterministic);
  write_pattern(w, plan.generator);
  w.u64(plan.groups.size());
  for (const markov::AssemblyPlan::Group& g : plan.groups) {
    w.u64(g.transition);
    w.vec_sizes(g.members);
    w.vec_char(g.in_set);
    write_pattern(w, g.subordinated);
  }

  // Per-state gate inputs, then the per-group classes.
  w.u64(artifact.state_class.size());
  for (const StructureArtifact::StateClass& sc : artifact.state_class) {
    w.i32(sc.down);
    w.boolean(sc.voter_up);
  }
  w.u64(artifact.classes.size());
  for (const std::vector<int>& cls : artifact.classes) w.vec_i32(cls);
  w.vec_sizes(artifact.class_of_state);
  return w.take();
}

std::shared_ptr<const StructureArtifact> decode_structure_artifact(
    const void* data, std::size_t size, const SystemParameters& params) {
  Reader r(data, size);
  expect_schema(r, kStructureSchema);

  auto st = std::make_shared<
      petri::TangibleReachabilityGraph::Structure>();
  const std::uint64_t n64 = r.u64();
  check(n64 <= r.remaining(), "state count exceeds payload");
  const std::size_t n = static_cast<std::size_t>(n64);
  st->markings.resize(n);
  for (petri::Marking& m : st->markings) m = r.vec_i32();
  st->index.reserve(n);
  for (std::size_t s = 0; s < n; ++s) st->index.emplace(st->markings[s], s);
  check(st->index.size() == n, "duplicate markings in skeleton");
  st->initial = read_prob_edges(r, n);
  st->exp_firings = read_firings(r, n);
  st->det_firings = read_firings(r, n);
  st->net_fingerprint = r.u64();
  st->has_det = r.boolean();

  markov::AssemblyPlan plan;
  plan.states = static_cast<std::size_t>(r.u64());
  check(plan.states == n, "plan state count disagrees with skeleton");
  plan.has_deterministic = r.boolean();
  plan.generator = read_pattern(r);
  const std::uint64_t group_count = r.u64();
  check(group_count <= r.remaining(), "group count exceeds payload");
  plan.groups.resize(static_cast<std::size_t>(group_count));
  for (markov::AssemblyPlan::Group& g : plan.groups) {
    g.transition = static_cast<std::size_t>(r.u64());
    g.members = r.vec_sizes();
    for (std::size_t member : g.members)
      check(member < n, "group member out of range");
    g.in_set = r.vec_char();
    check(g.in_set.size() == n, "group mask does not match state count");
    g.subordinated = read_pattern(r);
  }

  auto artifact = std::make_shared<StructureArtifact>();
  const std::uint64_t class_rows = r.u64();
  check(class_rows == n, "state classes do not match state count");
  artifact->state_class.resize(n);
  for (StructureArtifact::StateClass& sc : artifact->state_class) {
    sc.down = r.i32();
    sc.voter_up = r.boolean();
  }
  const std::uint64_t n_classes = r.u64();
  check(n_classes <= r.remaining(), "class count exceeds payload");
  artifact->classes.resize(static_cast<std::size_t>(n_classes));
  for (std::vector<int>& cls : artifact->classes) {
    cls = r.vec_i32();
    check(!cls.empty() && cls.size() % 3 == 0,
          "class must carry 3 counts per group");
  }
  artifact->class_of_state = r.vec_sizes();
  check(artifact->class_of_state.size() == n,
        "class map does not match state count");
  for (std::size_t ci : artifact->class_of_state)
    check(ci < artifact->classes.size(), "class index out of range");
  r.expect_done();

  // Re-pour the concrete net's rates through the deserialized skeleton —
  // the identical arithmetic a cold build() runs, so the numeric edges are
  // bit-identical. The structural parameters are pinned by the store key;
  // from_structure still fingerprint-checks the net against the skeleton.
  const BuiltModel model = PerceptionModelFactory::build(params);
  artifact->graph = petri::TangibleReachabilityGraph::from_structure(
      std::move(st), model.net);
  artifact->plan = std::move(plan);
  return artifact;
}

std::vector<std::uint8_t> encode_rates_artifact(
    const RatesArtifact& artifact) {
  Writer w;
  w.u32(kRatesSchema);
  w.vec_f64(artifact.probabilities);
  w.boolean(artifact.pure_ctmc);
  w.i32(static_cast<std::int32_t>(artifact.backend_used));
  w.u64(artifact.matrix_nonzeros);
  return w.take();
}

std::shared_ptr<const RatesArtifact> decode_rates_artifact(const void* data,
                                                           std::size_t size) {
  Reader r(data, size);
  expect_schema(r, kRatesSchema);
  auto artifact = std::make_shared<RatesArtifact>();
  artifact->probabilities = r.vec_f64();
  artifact->pure_ctmc = r.boolean();
  artifact->backend_used = read_backend(r);
  artifact->matrix_nonzeros = static_cast<std::size_t>(r.u64());
  r.expect_done();
  return artifact;
}

std::vector<std::uint8_t> encode_reward_table(
    const std::vector<double>& table) {
  Writer w;
  w.u32(kRewardTableSchema);
  w.vec_f64(table);
  return w.take();
}

std::shared_ptr<const std::vector<double>> decode_reward_table(
    const void* data, std::size_t size) {
  Reader r(data, size);
  expect_schema(r, kRewardTableSchema);
  auto table = std::make_shared<std::vector<double>>(r.vec_f64());
  r.expect_done();
  return table;
}

std::vector<std::uint8_t> encode_analysis_result(
    const AnalysisResult& result) {
  Writer w;
  w.u32(kAnalysisSchema);
  w.f64(result.expected_reliability);
  w.u64(result.state_distribution.size());
  for (const StateProbability& sp : result.state_distribution) {
    w.i32(sp.healthy);
    w.i32(sp.compromised);
    w.i32(sp.down);
    w.f64(sp.probability);
    w.f64(sp.reliability);
  }
  w.u64(result.tangible_states);
  w.boolean(result.used_dspn_solver);
  w.i32(static_cast<std::int32_t>(result.backend_used));
  w.u64(result.matrix_nonzeros);
  return w.take();
}

AnalysisResult decode_analysis_result(const void* data, std::size_t size) {
  Reader r(data, size);
  expect_schema(r, kAnalysisSchema);
  AnalysisResult result;
  result.expected_reliability = r.f64();
  const std::uint64_t rows = r.u64();
  check(rows <= r.remaining() / (3 * sizeof(std::int32_t) +
                                 2 * sizeof(double)),
        "distribution rows exceed payload");
  result.state_distribution.resize(static_cast<std::size_t>(rows));
  for (StateProbability& sp : result.state_distribution) {
    sp.healthy = r.i32();
    sp.compromised = r.i32();
    sp.down = r.i32();
    sp.probability = r.f64();
    sp.reliability = r.f64();
  }
  result.tangible_states = static_cast<std::size_t>(r.u64());
  result.used_dspn_solver = r.boolean();
  result.backend_used = read_backend(r);
  result.matrix_nonzeros = static_cast<std::size_t>(r.u64());
  r.expect_done();
  return result;
}

}  // namespace nvp::core
