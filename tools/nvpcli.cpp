// nvpcli — command-line front end to the library, in the role TimeNET
// plays for the paper: load a model (a .dspn file or one of the paper's
// built-in perception models), then solve, simulate, sweep, optimize, or
// explore. Every paper-model subcommand routes through core::Engine, so the
// CLI sees exactly the library's public API.
//
//   nvpcli analyze     --paper 6v [--interval 600] [--p 0.08] ...
//   nvpcli analyze     --model workcell.dspn --reward "#ok == 2"
//   nvpcli simulate    --paper 6v [--horizon 1e5] [--reps 8] [--seed 1]
//   nvpcli sweep       --paper 6v --param interval --from 200 --to 3000
//   nvpcli crossovers  --paper 6v --vs 4v --param mttc --from 500 --to 5000
//   nvpcli optimize    --paper 6v --from 100 --to 3000
//   nvpcli sensitivity --paper 6v [--step 0.1]
//   nvpcli archspace   --paper 6v [--max-n 10] [--top 10]
//   nvpcli monitor     --paper 6v [--horizon 200000] [--policy static]
//   nvpcli export      --paper 4v [--dot]
//
// Every command reads its flags through nvpd's one decoder
// (service::cli_request_json, then service::parse_request). The decoded
// request runs in-process, or its bytes go to the daemon with --remote; a
// refused input exits 1 with the decoder's message on both paths.
//
// Every subcommand accepts the shared option quartet --jobs/--seed/
// --format {table,csv,json}/--output <path>, plus the observability flags
// --metrics-json <path> (write a run manifest; implies --trace), --trace
// (print the span tree to stderr), and --cache-stats (print the staged
// pipeline's per-stage cache table to stderr). NVP_METRICS=0 disables
// metrics; a path-valued NVP_METRICS acts like --metrics-json. Removed flag
// spellings (--threads, --rng-seed, --csv, --json, --out, --solver,
// --fallback) and removed --solver-config keys fail with an error naming
// their replacement.
//
// Exit code 0 on success; 1 on usage errors and refused inputs, including a
// flag the command does not read and a bad command-local flag (optimize
// --from/--to, sensitivity --step, the crossovers grid, archspace
// --max-n/-f/-r/--top); 2 on model/solver errors and on a bad common flag
// value.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/reliability.hpp"
#include "src/core/staged.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/monitor/session.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/petri/dot_export.hpp"
#include "src/petri/dspn_parser.hpp"
#include "src/petri/expression.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/sim/dspn_simulator.hpp"
#include "src/store/store.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"
#include "src/util/string_util.hpp"
#include "src/util/table.hpp"

namespace {

using namespace nvp;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  nvpcli analyze     (--paper 4v|6v [param overrides] | --model "
      "<file.dspn> --reward <expr>)\n"
      "  nvpcli simulate    (--paper 4v|6v | --model <file.dspn> --reward "
      "<expr>) [--horizon 1e6] [--reps 8]\n"
      "  nvpcli sweep       --paper 4v|6v --param <override> --from <x> "
      "--to <x> [--points 15]\n"
      "  nvpcli crossovers  --paper 4v|6v --vs plain|4v|6v --param "
      "<override> --from <x> --to <x> [--points 15] [--tolerance 1.0]\n"
      "  nvpcli optimize    --paper 6v --from <x> --to <x>\n"
      "  nvpcli sensitivity --paper 4v|6v [--step 0.1]\n"
      "  nvpcli archspace   --paper 4v|6v [--max-n 10] [--max-f 2] "
      "[--max-r 2] [--top N] [--hetero] [--hardened-mtc-factor 4] "
      "[--hardened-weight 2] [--hardened-repair-q 0]\n"
      "  nvpcli monitor     --paper 6v [--schedule step|ramp|sinusoid] "
      "[--horizon 200000] [--multiplier 8] [--period 60000] "
      "[--segment 2000] [--policy hysteresis|static] [--update-every 2500] "
      "[--interval-lo 60] [--interval-hi 3000] [--grid-points 10] "
      "[--band 0.15]\n"
      "  nvpcli export      (--paper 4v|6v | --model <file.dspn>) [--dot]\n"
      "  nvpcli serve       [--host 127.0.0.1] [--port 0] "
      "[--service-workers N] [--queue-capacity 1024] "
      "[--default-deadline-ms 0] [--send-timeout-ms 10000]\n"
      "  nvpcli stats       --remote <host:port>\n"
      "  nvpcli shutdown    --remote <host:port>\n"
      "  nvpcli store       stats|gc [--store DIR] [--target-mb N]\n"
      "\n"
      "persistent solve store (any analytic command, and serve): --store "
      "DIR opens a cross-process on-disk artifact store so repeated runs "
      "warm-start (bit-identical to cold); --store-cap-mb N bounds it "
      "(LRU-evicted). NVP_STORE / NVP_STORE_CAP_MB are the env "
      "equivalents; the flag wins. `store stats` prints occupancy and "
      "hit/corruption counters, `store gc` re-scans and evicts to "
      "--target-mb (default: the configured cap).\n"
      "\n"
      "closed-loop monitoring: `monitor` replays a drifting-attack scenario "
      "against the Monte-Carlo perception system, estimates lambda_c/p' "
      "online from module verdicts (windowed MLE + Gamma/Beta credible "
      "intervals), re-solves the model through the staged rates-only path "
      "at --update-every, and steers the rejuvenation clock per --policy "
      "(hysteresis dead band --band, clamped to [--interval-lo, "
      "--interval-hi]). Output is one row per controller update; failed "
      "re-solves degrade to envelope rows with the last-good target.\n"
      "\n"
      "remote mode: --remote <host:port> runs analyze|sweep|simulate|monitor "
      "of a --paper model on an nvpd daemon (`nvpcli serve`) and prints the "
      "result JSON; other commands and --model refuse it. Both paths decode "
      "the flags as one nvpd request, so a refused input exits 1 with the "
      "same message. --deadline-ms <ms> bounds a request (local analyze or "
      "any remote request); an overrun degrades into a deadline-exceeded "
      "error.\n"
      "\n"
      "paper parameter overrides: --n --f --r --alpha --p --p-prime --mttc "
      "--mttf --mttr --interval --duration --detection-rate (every one but "
      "n/f/r is also a sweep/crossovers --param value)\n"
      "heterogeneous architectures: --groups "
      "\"count[:mttc[:mttf[:mttr[:p[:p-prime[:weight[:repair-degradation"
      "]]]]]]];...\" splits the N modules into groups with per-group rates, "
      "voting weights (quota generalizes 2f+r+1 to weighted mass), and "
      "imperfect repair (probability q of a degraded repair). Empty fields "
      "inherit the scalar flags; N is derived from the counts. Example: "
      "--groups \"4;2:6092\" slows compromise of two of six modules, "
      "--groups \"1;5:6092:::::2:0.1\" adds double-weight votes and "
      "imperfect repair (q=0.1); `archspace --hetero` explores two-group "
      "splits automatically.\n"
      "analyze options: --convention verbatim|generalized|strict "
      "--attachment operational|appendix\n"
      "solver selection (any analytic command): --solver-config "
      "<key=value,...> (keys: backend auto|dense|sparse|mfree, "
      "fallback=<stage+stage+...> over gmres-ilu0|gmres-jacobi|power|dense|"
      "mfree, attempt-deadline=<seconds, 0 = unbounded>; auto = sparse "
      "Krylov from 128 states for CTMC models, dense below; for MRGP models "
      "dense once the clocks' uniformization series take 3.0 terms per "
      "state (sum of lambda*tau >= 3.0 n) and n <= 4096, matrix-free "
      "otherwise; sparse and mfree both name the model's sparse backend: "
      "CSR for a CTMC, matrix-free for an MRGP)\n"
      "robustness: --strict (fail fast instead of degrading failed points "
      "into error envelopes)\n"
      "common options (any command): --jobs N, --seed S, --format "
      "table|csv|json, --output <path>\n"
      "observability: --metrics-json <path> (write run manifest; implies "
      "--trace), --trace (span tree to stderr), --metrics (counter dump to "
      "stderr), --cache-stats (per-stage pipeline cache table to stderr); "
      "NVP_METRICS=0 disables collection\n");
  return 1;
}

// ---------------------------------------------------------------------------
// Output rendering: one tabular shape, three formats.

struct Report {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

bool is_number(const std::string& text) {
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::string render(const Report& report, util::OutputFormat format) {
  switch (format) {
    case util::OutputFormat::kTable: {
      util::TextTable table(report.columns);
      for (const auto& row : report.rows) table.row(row);
      return table.render();
    }
    case util::OutputFormat::kCsv: {
      std::string out;
      const auto line = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (i > 0) out += ',';
          out += util::CsvWriter::escape(cells[i]);
        }
        out += '\n';
      };
      line(report.columns);
      for (const auto& row : report.rows) line(row);
      return out;
    }
    case util::OutputFormat::kJson: {
      obs::JsonWriter json;
      json.begin_array();
      for (const auto& row : report.rows) {
        json.begin_object();
        for (std::size_t i = 0; i < row.size() && i < report.columns.size();
             ++i) {
          json.key(report.columns[i]);
          if (is_number(row[i]))
            json.value(std::strtod(row[i].c_str(), nullptr));
          else
            json.value(row[i]);
        }
        json.end_object();
      }
      json.end_array();
      return json.str() + "\n";
    }
  }
  return {};
}

/// Writes `text` to `path`, or stdout when `path` is empty.
bool emit(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open --output file '%s'\n",
                 path.c_str());
    return false;
  }
  out << text;
  return out.good();
}

void dump_cache_stats() {
  const auto stats = core::stage_cache_stats();
  const auto row = [](const char* name, const runtime::CacheStats& s) {
    std::fprintf(stderr, "  %-13s %8llu %8llu %10llu %8.1f%%\n", name,
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.evictions),
                 100.0 * s.hit_rate());
  };
  std::fprintf(stderr, "staged-pipeline caches:\n");
  std::fprintf(stderr, "  %-13s %8s %8s %10s %9s\n", "stage", "hits",
               "misses", "evictions", "hit-rate");
  row("structure", stats.structure);
  row("rates", stats.rates);
  row("reward_table", stats.reward_table);
  row("rewards", stats.rewards);
  // Service counters ride along: zeros in batch runs, live totals when this
  // process hosted nvpd (`serve` prints them on shutdown). The same numbers
  // are served remotely by the `stats` protocol request.
  const service::ServiceStats service = service::service_stats();
  std::fprintf(stderr, "service counters:\n");
  std::fprintf(
      stderr,
      "  requests=%llu executed=%llu coalesced=%llu queue-rejected=%llu "
      "deadline-missed=%llu protocol-errors=%llu responses=%llu\n",
      static_cast<unsigned long long>(service.requests),
      static_cast<unsigned long long>(service.executed),
      static_cast<unsigned long long>(service.coalesced),
      static_cast<unsigned long long>(service.rejected),
      static_cast<unsigned long long>(service.deadline_missed),
      static_cast<unsigned long long>(service.protocol_errors),
      static_cast<unsigned long long>(service.responses));
  if (store::Store* disk = store::global()) {
    const store::Stats s = disk->stats();
    std::fprintf(stderr,
                 "persistent store (%s):\n"
                 "  entries=%llu bytes=%llu hits=%llu misses=%llu "
                 "corrupt=%llu evictions=%llu writes=%llu\n",
                 s.directory.c_str(),
                 static_cast<unsigned long long>(s.entries),
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.corrupt),
                 static_cast<unsigned long long>(s.evictions),
                 static_cast<unsigned long long>(s.writes));
  }
}

void dump_metrics() {
  const auto snapshot = obs::Registry::global().snapshot();
  for (const auto& [name, value] : snapshot.counters)
    std::fprintf(stderr, "%s = %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  for (const auto& [name, value] : snapshot.gauges)
    std::fprintf(stderr, "%s = %g\n", name.c_str(), value);
  for (const auto& [name, h] : snapshot.histograms)
    std::fprintf(stderr, "%s: count=%llu mean=%g p50<=%g p90<=%g p99<=%g\n",
                 name.c_str(), static_cast<unsigned long long>(h.count),
                 h.mean(), h.p50, h.p90, h.p99);
}

// The flags a command reads itself, outside the decoder. Each row names one
// with the check its value must pass before any work (null: any value):
// the message of a bad value, naming the flag, or "" when it is fine.
struct LocalFlag {
  const char* command;
  const char* name;
  std::string (*check)(const util::CliArgs& args);
};

const LocalFlag kLocalFlags[] = {
    {"analyze", "model", nullptr},
    {"analyze", "reward", nullptr},
    {"simulate", "model", nullptr},
    {"simulate", "reward", nullptr},
    {"export", "model", nullptr},
    {"export", "dot", nullptr},
    {"optimize", "from",
     [](const util::CliArgs& args) -> std::string {
       return args.get_double("from", 100.0) > 0.0 ? "" : "--from must be > 0";
     }},
    {"optimize", "to",
     [](const util::CliArgs& args) -> std::string {
       return args.get_double("to", 3000.0) > args.get_double("from", 100.0)
                  ? ""
                  : "--to must be greater than --from";
     }},
    {"sensitivity", "step",
     [](const util::CliArgs& args) -> std::string {
       const double step = args.get_double("step", 0.1);
       return step > 0.0 && step < 1.0 ? "" : "--step must lie in (0, 1)";
     }},
    {"crossovers", "vs", nullptr},
    {"crossovers", "param",
     [](const util::CliArgs& args) -> std::string {
       return core::setter_for(args.get("param", "mttc"))
                  ? ""
                  : "--param must be one of " + core::sweepable_names();
     }},
    {"crossovers", "from", nullptr},
    {"crossovers", "to",
     [](const util::CliArgs& args) -> std::string {
       return args.get_double("to", 0.0) > args.get_double("from", 0.0)
                  ? ""
                  : "--to must be greater than --from";
     }},
    {"crossovers", "points",
     [](const util::CliArgs& args) -> std::string {
       return args.get_int("points", 15) >= 2 ? "" : "--points must be >= 2";
     }},
    {"crossovers", "tolerance",
     [](const util::CliArgs& args) -> std::string {
       return args.get_double("tolerance", 1.0) > 0.0
                  ? ""
                  : "--tolerance must be > 0";
     }},
    {"archspace", "max-n",
     [](const util::CliArgs& args) -> std::string {
       return args.get_int("max-n", 4) >= 4 ? "" : "--max-n must be >= 4";
     }},
    {"archspace", "max-f",
     [](const util::CliArgs& args) -> std::string {
       return args.get_int("max-f", 1) >= 1 ? "" : "--max-f must be >= 1";
     }},
    {"archspace", "max-r",
     [](const util::CliArgs& args) -> std::string {
       return args.get_int("max-r", 0) >= 0 ? "" : "--max-r must be >= 0";
     }},
    {"archspace", "top",
     [](const util::CliArgs& args) -> std::string {
       return args.get_int("top", 0) >= 0 ? "" : "--top must be >= 0";
     }},
    {"archspace", "hetero", nullptr},
    {"archspace", "hardened-mtc-factor", nullptr},
    {"archspace", "hardened-weight", nullptr},
    {"archspace", "hardened-repair-q", nullptr},
    {"serve", "host", nullptr},
    {"serve", "port", nullptr},
    {"serve", "service-workers", nullptr},
    {"serve", "queue-capacity", nullptr},
    {"serve", "default-deadline-ms", nullptr},
    {"serve", "send-timeout-ms", nullptr},
    {"store", "target-mb", nullptr},
};

// Flags every command reads: where it runs and how it treats failures and
// the persistent store.
constexpr const char* kToolFlags[] = {"remote", "strict", "store",
                                      "store-cap-mb"};

// Refuses, before any work, a flag `command` does not read — one the
// decoder does not map for `method` (the request the command decodes as),
// no common, tool or command-local flag — and then a bad command-local
// value: the message (naming the flag), or "" when all are fine.
std::string check_local_flags(const std::string& command,
                              const std::string& method,
                              const util::CliArgs& args) {
  const auto named = [](const auto& names, const std::string& key) {
    return std::find(std::begin(names), std::end(names), key) !=
           std::end(names);
  };
  for (const std::string& key : args.keys()) {
    const bool local = std::any_of(
        std::begin(kLocalFlags), std::end(kLocalFlags),
        [&](const LocalFlag& flag) {
          return command == flag.command && key == flag.name;
        });
    if (!local && !service::cli_reads_flag(method, key) &&
        !named(util::kCommonFlags, key) && !named(kToolFlags, key))
      return "unknown flag --" + key + " for " + command;
  }
  try {
    for (const LocalFlag& flag : kLocalFlags)
      if (command == flag.command && flag.check != nullptr)
        if (std::string bad = flag.check(args); !bad.empty()) return bad;
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Subcommands. Each renders into `out`; main() routes it to stdout/--output.

int analyze_paper(const core::Engine& engine, const service::Request& request,
                  const util::CommonOptions& common, std::string& out) {
  const core::SystemParameters& params = request.params;
  const auto result =
      request.deadline_ms > 0.0
          ? engine.analyze_within(
                params, std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    request.deadline_ms)))
          : engine.analyze(params);
  if (!result.ok) {
    std::fprintf(stderr, "error: analysis failed: %s\n",
                 result.error.summary().c_str());
    return 2;
  }
  const auto& analysis = result.analysis;
  const char* solver = analysis.used_dspn_solver ? "MRGP" : "CTMC";
  const char* backend = markov::to_string(analysis.backend_used);
  switch (common.format) {
    case util::OutputFormat::kTable: {
      out += util::format("configuration: %s\n", params.describe().c_str());
      out += util::format(
          "tangible states: %zu (%s solver, %s backend, %zu stored "
          "nonzeros)\n",
          analysis.tangible_states, solver, backend,
          analysis.matrix_nonzeros);
      out += util::format("E[R_sys] = %.7f\n", analysis.expected_reliability);
      out += "top states:\n";
      for (std::size_t i = 0;
           i < analysis.state_distribution.size() && i < 8; ++i) {
        const auto& sp = analysis.state_distribution[i];
        out += util::format("  (H=%d C=%d down=%d)  pi=%.6f  R=%.6f\n",
                            sp.healthy, sp.compromised, sp.down,
                            sp.probability, sp.reliability);
      }
      break;
    }
    case util::OutputFormat::kCsv: {
      Report report;
      report.columns = {"metric", "value"};
      report.rows = {
          {"expected_reliability",
           util::format("%.7f", analysis.expected_reliability)},
          {"tangible_states", util::format("%zu", analysis.tangible_states)},
          {"solver", solver},
          {"backend", backend}};
      out = render(report, common.format);
      break;
    }
    case util::OutputFormat::kJson: {
      obs::JsonWriter json;
      json.begin_object();
      json.kv("configuration", params.describe());
      json.kv("expected_reliability", analysis.expected_reliability);
      json.kv("tangible_states",
              static_cast<std::uint64_t>(analysis.tangible_states));
      json.kv("solver", solver);
      json.kv("backend", backend);
      json.kv("matrix_nonzeros",
              static_cast<std::uint64_t>(analysis.matrix_nonzeros));
      json.key("states").begin_array();
      for (const auto& sp : analysis.state_distribution) {
        json.begin_object();
        json.kv("healthy", sp.healthy);
        json.kv("compromised", sp.compromised);
        json.kv("down", sp.down);
        json.kv("probability", sp.probability);
        json.kv("reliability", sp.reliability);
        json.end_object();
      }
      json.end_array().end_object();
      out = json.str() + "\n";
      break;
    }
  }
  return 0;
}

int analyze_model(const util::CliArgs& args,
                  const markov::SolverConfig& solver, std::string& out) {
  const auto net = petri::load_dspn_file(args.get("model", ""));
  const std::string reward_text = args.get("reward", "");
  if (reward_text.empty()) {
    std::fprintf(stderr, "--model analysis needs --reward <expr>\n");
    return 1;
  }
  const auto reward = petri::Expression::parse(reward_text, net);
  const auto graph = petri::TangibleReachabilityGraph::build(net);
  const auto solution =
      markov::DspnSteadyStateSolver(solver).solve(graph);
  double expected = 0.0;
  for (std::size_t s = 0; s < graph.size(); ++s)
    expected += solution.probabilities[s] * reward.eval(graph.marking(s));
  out += util::format("model: %s (%zu tangible states, %s solver, %s backend)\n",
                      net.name().c_str(), graph.size(),
                      solution.pure_ctmc ? "CTMC" : "MRGP",
                      markov::to_string(solution.backend_used));
  out += util::format("steady-state E[%s] = %.7f\n", reward_text.c_str(),
                      expected);
  return 0;
}

int simulate_model(const util::CliArgs& args,
                   const core::Engine::SimulateOptions& options,
                   std::string& out) {
  const auto net = petri::load_dspn_file(args.get("model", ""));
  const std::string reward_text = args.get("reward", "");
  if (reward_text.empty()) {
    std::fprintf(stderr, "simulate --model needs --reward <expr>\n");
    return 1;
  }
  const auto expr = petri::Expression::parse(reward_text, net);
  sim::DspnSimulator simulator(net);
  sim::SimulationOptions run;
  run.horizon = options.horizon;
  run.warmup_time = options.horizon / 100.0;
  run.seed = options.seed;
  const auto estimate =
      simulator.estimate(expr.as_rate(), run, options.replications);
  out += util::format(
      "simulated E[%s] = %.6f (95%% CI [%.6f, %.6f], %zu reps)\n",
      reward_text.c_str(), estimate.mean, estimate.ci.lo, estimate.ci.hi,
      options.replications);
  return 0;
}

int simulate_paper(const core::Engine& engine, const service::Request& request,
                   const util::CommonOptions& common, std::string& out) {
  const core::SystemParameters& params = request.params;
  const core::Engine::SimulateOptions& options = request.simulate;
  const auto result = engine.simulate(params, options);
  const auto& estimate = result.estimate;
  switch (common.format) {
    case util::OutputFormat::kTable:
      out += util::format(
          "simulated E[R_sys] = %.6f (95%% CI [%.6f, %.6f], horizon %.3g s "
          "x %zu reps)\n",
          estimate.mean, estimate.ci.lo, estimate.ci.hi, options.horizon,
          options.replications);
      break;
    case util::OutputFormat::kCsv: {
      Report report;
      report.columns = {"metric", "value"};
      report.rows = {{"mean", util::format("%.6f", estimate.mean)},
                     {"ci_lo", util::format("%.6f", estimate.ci.lo)},
                     {"ci_hi", util::format("%.6f", estimate.ci.hi)},
                     {"horizon", util::format("%g", options.horizon)},
                     {"replications",
                      util::format("%zu", options.replications)},
                     {"seed", util::format("%llu",
                                           static_cast<unsigned long long>(
                                               options.seed))}};
      out = render(report, common.format);
      break;
    }
    case util::OutputFormat::kJson: {
      obs::JsonWriter json;
      json.begin_object();
      json.kv("configuration", params.describe());
      json.kv("mean", estimate.mean);
      json.kv("ci_lo", estimate.ci.lo);
      json.kv("ci_hi", estimate.ci.hi);
      json.kv("horizon", options.horizon);
      json.kv("replications",
              static_cast<std::uint64_t>(options.replications));
      json.kv("seed", static_cast<std::uint64_t>(options.seed));
      json.end_object();
      out = json.str() + "\n";
      break;
    }
  }
  return 0;
}

int sweep(const core::Engine& engine, const service::Request& request,
          const util::CommonOptions& common, std::string& out) {
  const std::string& name = request.sweep_param;
  const auto results =
      engine.sweep(request.params, core::setter_for(name),
                   core::linspace(request.sweep_from, request.sweep_to,
                                  request.sweep_points));
  // Degraded points render an empty reliability cell plus an error column
  // (added only when at least one point failed, so clean sweeps keep the
  // two-column shape downstream tooling parses).
  bool any_failed = false;
  for (const auto& point : results) any_failed |= !point.ok;
  Report report;
  report.columns = {name, "E[R_sys]"};
  if (any_failed) report.columns.push_back("error");
  for (const auto& point : results) {
    std::vector<std::string> row = {
        util::format("%.6g", point.x),
        point.ok ? util::format("%.7f", point.expected_reliability)
                 : std::string()};
    if (any_failed) row.push_back(point.ok ? "" : point.error.summary());
    report.rows.push_back(std::move(row));
  }
  out = render(report, common.format);
  return 0;
}

// Finds parameter values where two configurations' reliability curves
// intersect (the paper's "which architecture wins where" question — e.g.
// six-version vs four-version as the compromise rate degrades, or
// rejuvenating vs plain as the interval varies). Configuration A is the
// usual --paper preset with overrides; --vs picks configuration B:
// "plain" (A without rejuvenation), "4v", or "6v".
int crossovers(const core::Engine& engine,
               const core::SystemParameters& config_a,
               const util::CliArgs& args, const util::CommonOptions& common,
               std::string& out) {
  const std::string vs = args.get("vs", "plain");
  core::SystemParameters config_b = config_a;
  if (vs == "plain") {
    if (!config_a.rejuvenation) {
      std::fprintf(stderr,
                   "--vs plain compares against the base configuration "
                   "without rejuvenation, which needs a rejuvenating "
                   "--paper base\n");
      return 1;
    }
    config_b.rejuvenation = false;
  } else if (vs == "4v") {
    config_b = core::SystemParameters::paper_four_version();
  } else if (vs == "6v") {
    config_b = core::SystemParameters::paper_six_version();
  } else {
    std::fprintf(stderr, "--vs expects plain|4v|6v, got '%s'\n", vs.c_str());
    return 1;
  }
  // check_local_flags has vetted these.
  const std::string name = args.get("param", "mttc");
  const core::ParameterSetter setter = core::setter_for(name);
  const double from = args.get_double("from", 0.0);
  const double to = args.get_double("to", 0.0);
  const auto points = static_cast<std::size_t>(args.get_int("points", 15));
  const double tolerance = args.get_double("tolerance", 1.0);
  const auto crossings = engine.crossovers(
      config_a, config_b, setter, core::linspace(from, to, points), tolerance);
  if (crossings.empty() && common.format == util::OutputFormat::kTable) {
    out += util::format("no crossovers of %s in [%g, %g] (%zu grid points)\n",
                        name.c_str(), from, to, points);
    return 0;
  }
  Report report;
  report.columns = {name, "E[R_sys]"};
  for (const auto& crossing : crossings)
    report.rows.push_back({util::format("%.6g", crossing.x),
                           util::format("%.7f", crossing.reliability)});
  out = render(report, common.format);
  return 0;
}

int optimize(const core::Engine& engine, const core::SystemParameters& params,
             const util::CliArgs& args, const util::CommonOptions& common,
             std::string& out) {
  const double from = args.get_double("from", 100.0);
  const double to = args.get_double("to", 3000.0);
  const auto optimum =
      engine.optimize_rejuvenation_interval(params, from, to);
  // Failed evaluations show only when there are any (the sweep's envelope
  // convention), so clean output keeps its shape.
  if (common.format == util::OutputFormat::kTable) {
    out += util::format(
        "optimal rejuvenation interval: %.1f s -> E[R_sys] = %.7f (%zu "
        "evaluations",
        optimum.x, optimum.expected_reliability, optimum.evaluations);
    if (optimum.failed > 0)
      out += util::format(", %zu failed, first: %s", optimum.failed,
                          optimum.error.summary().c_str());
    out += ")\n";
    return 0;
  }
  Report report;
  report.columns = {"optimal_interval", "expected_reliability",
                    "evaluations"};
  report.rows = {{util::format("%.1f", optimum.x),
                  util::format("%.7f", optimum.expected_reliability),
                  util::format("%zu", optimum.evaluations)}};
  if (optimum.failed > 0) {
    report.columns.insert(report.columns.end(), {"failed", "error"});
    report.rows[0].insert(report.rows[0].end(),
                          {util::format("%zu", optimum.failed),
                           optimum.error.summary()});
  }
  out = render(report, common.format);
  return 0;
}

int monitor_session(const core::Engine& engine,
                    const monitor::SessionConfig& config,
                    const util::CommonOptions& common, std::string& out) {
  const monitor::SessionResult result = run_monitor_session(engine, config);

  // One row per controller update; degraded re-solves render an empty
  // E[R_sys] cell plus an error column (added only when needed), the same
  // envelope convention as sweep.
  bool any_degraded = false;
  for (const auto& r : result.records) any_degraded |= r.degraded;
  Report report;
  report.columns = {"time",          "lambda_mle",  "lambda_mean",
                    "lambda_lo95",   "lambda_hi95", "pprime_mean",
                    "mttc_hat",      "target",      "applied",
                    "E[R_sys]",      "retuned"};
  if (any_degraded) report.columns.push_back("error");
  for (const auto& r : result.records) {
    std::vector<std::string> row = {
        util::format("%.0f", r.time),
        util::format("%.6g", r.lambda.mle),
        util::format("%.6g", r.lambda.mean),
        util::format("%.6g", r.lambda.lo95),
        util::format("%.6g", r.lambda.hi95),
        util::format("%.6g", r.p_prime.mean),
        r.mttc_hat > 0.0 ? util::format("%.6g", r.mttc_hat) : std::string(),
        util::format("%.1f", r.target_interval),
        util::format("%.1f", r.applied_interval),
        r.solved() ? util::format("%.7f", r.expected_reliability)
                   : std::string(),
        r.retuned ? "1" : "0"};
    if (any_degraded) row.push_back(r.degraded ? r.error : std::string());
    report.rows.push_back(std::move(row));
  }

  if (common.format == util::OutputFormat::kTable) {
    out += util::format(
        "monitor session: schedule=%s x%.1f period=%.0fs horizon=%.0fs "
        "policy=%s seed=%llu\n",
        monitor::DriftSchedule::kind_name(config.schedule.kind),
        config.schedule.multiplier, config.schedule.period, config.duration,
        config.policy.c_str(),
        static_cast<unsigned long long>(config.seed));
    out += util::format(
        "reliability=%.6f updates=%llu resolves=%llu retunes=%llu "
        "degraded=%llu detections=%llu\n",
        result.reliability,
        static_cast<unsigned long long>(result.updates),
        static_cast<unsigned long long>(result.resolves),
        static_cast<unsigned long long>(result.retunes),
        static_cast<unsigned long long>(result.degraded_updates),
        static_cast<unsigned long long>(result.detections));
    out += util::format("final_interval=%.1f mean_interval=%.1f\n",
                        result.final_interval, result.mean_interval);
    out += render(report, common.format);
    return 0;
  }
  if (common.format == util::OutputFormat::kJson) {
    obs::JsonWriter json;
    json.begin_object();
    json.kv("schedule",
            monitor::DriftSchedule::kind_name(config.schedule.kind));
    json.kv("multiplier", config.schedule.multiplier);
    json.kv("horizon", config.duration);
    json.kv("policy", config.policy);
    json.kv("seed", static_cast<std::uint64_t>(config.seed));
    json.kv("reliability", result.reliability);
    json.kv("updates", result.updates);
    json.kv("resolves", result.resolves);
    json.kv("retunes", result.retunes);
    json.kv("degraded_updates", result.degraded_updates);
    json.kv("detections", result.detections);
    json.kv("final_interval", result.final_interval);
    json.kv("mean_interval", result.mean_interval);
    json.key("records").begin_array();
    for (const auto& r : result.records) {
      json.begin_object();
      json.kv("time", r.time);
      json.kv("lambda_mle", r.lambda.mle);
      json.kv("lambda_mean", r.lambda.mean);
      json.kv("lambda_lo95", r.lambda.lo95);
      json.kv("lambda_hi95", r.lambda.hi95);
      json.kv("pprime_mean", r.p_prime.mean);
      json.kv("target", r.target_interval);
      json.kv("applied", r.applied_interval);
      if (r.solved()) json.kv("expected_reliability", r.expected_reliability);
      json.kv("retuned", r.retuned);
      if (r.degraded) json.kv("error", r.error);
      json.end_object();
    }
    json.end_array().end_object();
    out = json.str() + "\n";
    return 0;
  }
  out = render(report, common.format);
  return 0;
}

int sensitivity(const core::Engine& engine,
                const core::SystemParameters& params,
                const util::CliArgs& args, const util::CommonOptions& common,
                std::string& out) {
  const double step = args.get_double("step", 0.1);
  const auto entries = engine.sensitivity(params, step);
  if (common.format == util::OutputFormat::kTable) {
    out = core::render_tornado(entries);
    return 0;
  }
  Report report;
  report.columns = {"parameter", "base", "value_down", "value_up",
                    "elasticity"};
  for (const auto& entry : entries)
    report.rows.push_back({entry.parameter,
                           util::format("%.6g", entry.base_value),
                           util::format("%.7f", entry.value_down),
                           util::format("%.7f", entry.value_up),
                           util::format("%.5f", entry.elasticity)});
  out = render(report, common.format);
  return 0;
}

int archspace(const core::Engine& engine, const core::SystemParameters& params,
              const util::CliArgs& args, const util::CommonOptions& common,
              std::string& out) {
  core::ArchitectureSpaceExplorer::Options options;
  options.max_versions = args.get_int("max-n", options.max_versions);
  options.max_faulty = args.get_int("max-f", options.max_faulty);
  options.max_rejuvenating = args.get_int("max-r", options.max_rejuvenating);
  options.heterogeneous = args.has("hetero");
  options.hardened_mtc_factor =
      args.get_double("hardened-mtc-factor", options.hardened_mtc_factor);
  options.hardened_weight =
      args.get_double("hardened-weight", options.hardened_weight);
  options.hardened_repair_degradation = args.get_double(
      "hardened-repair-q", options.hardened_repair_degradation);
  options.attachment = engine.options().attachment;
  options.solver = engine.options().solver;
  auto results = engine.architectures(params, options);
  const int top = args.get_int("top", 0);
  if (top > 0 && results.size() > static_cast<std::size_t>(top))
    results.resize(static_cast<std::size_t>(top));
  bool any_failed = false;
  for (const auto& r : results) any_failed |= !r.ok;
  Report report;
  report.columns = {"architecture", "n",        "f",
                    "r",            "rejuv",    "E[R_sys]",
                    "states",       "R_per_module"};
  if (any_failed) report.columns.push_back("error");
  for (const auto& r : results) {
    std::vector<std::string> row = {
        r.label(), util::format("%d", r.n), util::format("%d", r.f),
        util::format("%d", r.r), r.rejuvenation ? "yes" : "no",
        r.ok ? util::format("%.7f", r.expected_reliability) : std::string(),
        util::format("%zu", r.tangible_states),
        r.ok ? util::format("%.3g", r.reliability_per_module)
             : std::string()};
    if (any_failed) row.push_back(r.ok ? "" : r.error.summary());
    report.rows.push_back(std::move(row));
  }
  out = render(report, common.format);
  return 0;
}

// ---------------------------------------------------------------------------
// Service mode: `serve` hosts nvpd in-process; `--remote` turns the
// analytic subcommands into protocol clients of a running daemon.

volatile std::sig_atomic_t g_signal_stop = 0;
void handle_stop_signal(int) { g_signal_stop = 1; }

int serve(const util::CliArgs& args,
          const core::ReliabilityAnalyzer::Options& analyzer) {
  service::Server::Options options;
  options.host = args.get("host", "127.0.0.1");
  options.port = args.get_int("port", 0);
  options.workers =
      static_cast<std::size_t>(args.get_int("service-workers", 0));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 1024));
  options.default_deadline_ms = args.get_double("default-deadline-ms", 0.0);
  options.send_timeout_ms =
      args.get_double("send-timeout-ms", options.send_timeout_ms);
  options.analyzer = analyzer;

  service::Server server(std::move(options));
  server.start();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::fprintf(stderr, "nvpd listening on %s:%d\n",
               server.options().host.c_str(), server.port());
  std::fflush(stderr);
  // Poll instead of wait(): a signal handler cannot safely notify the
  // server's condition variable, but it can set a flag we sleep against.
  while (g_signal_stop == 0 && !server.shutdown_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::fprintf(stderr, "nvpd draining...\n");
  server.shutdown();
  const service::ServiceStats stats = service::service_stats();
  std::fprintf(stderr,
               "nvpd stopped: %llu requests, %llu executed, %llu coalesced, "
               "%llu rejected, %llu deadline-missed\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.executed),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.deadline_missed));
  return 0;
}

/// Sends one decoded request's bytes to a daemon. Output is always JSON
/// (the response's result object); structured errors go to stderr with exit
/// code 2, matching the local error path.
int run_remote(const std::string& method, const std::string& payload,
               const util::CliArgs& args, std::string& out) {
  std::string host;
  int port = 0;
  if (!service::parse_endpoint(args.get("remote", ""), &host, &port)) {
    std::fprintf(stderr, "error: --remote expects <host:port>\n");
    return 1;
  }
  service::Client client;
  std::string error;
  if (!client.connect(host, port, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const auto response = client.call(1, payload, &error);
  if (!response) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!response->ok) {
    std::fprintf(stderr, "error: remote %s failed: %s: %s\n", method.c_str(),
                 response->error->string_or("category", "?").c_str(),
                 response->error->string_or("message", "?").c_str());
    return 2;
  }
  out = service::wire::dump(*response->result) + "\n";
  return 0;
}

int export_model(const util::CliArgs& args,
                 const core::SystemParameters& params, std::string& out) {
  petri::PetriNet net =
      args.has("model") ? petri::load_dspn_file(args.get("model", ""))
                        : core::PerceptionModelFactory::build(params).net;
  out = args.has("dot") ? petri::to_dot(net) : petri::to_dspn_text(net);
  return 0;
}

/// `nvpcli store stats|gc`: occupancy / maintenance of the persistent solve
/// store. Operates on the store opened by --store / NVP_STORE (the shared
/// main() path has already opened it by the time we run).
int store_command(const util::CliArgs& args, const util::CommonOptions& common,
                  std::string& out) {
  // CliArgs was built over argv + 1 and skips its own argv[0] ("store"),
  // so the sub-subcommand is the first positional.
  const auto& positional = args.positional();
  const std::string sub = positional.empty() ? "" : positional.front();
  if (sub != "stats" && sub != "gc") return usage();
  store::Store* disk = store::global();
  if (disk == nullptr) {
    std::fprintf(stderr,
                 "error: no store open — pass --store DIR or set NVP_STORE\n");
    return 2;
  }
  if (sub == "gc") {
    const double target_mb = args.get_double("target-mb", 0.0);
    const std::uint64_t evicted =
        disk->gc(target_mb > 0.0
                     ? static_cast<std::uint64_t>(target_mb * (1 << 20))
                     : 0);
    std::fprintf(stderr, "store gc: %llu entr%s evicted\n",
                 static_cast<unsigned long long>(evicted),
                 evicted == 1 ? "y" : "ies");
  }
  const store::Stats stats = disk->stats();
  Report report;
  report.columns = {"metric", "value"};
  const auto row = [&](const char* name, const std::string& value) {
    report.rows.push_back({name, value});
  };
  row("directory", stats.directory);
  row("capacity_bytes", util::format("%llu", static_cast<unsigned long long>(
                                                 stats.capacity_bytes)));
  row("entries", util::format("%llu",
                              static_cast<unsigned long long>(stats.entries)));
  row("bytes",
      util::format("%llu", static_cast<unsigned long long>(stats.bytes)));
  for (std::size_t i = 0; i < store::kKindCount; ++i) {
    const store::Kind kind = static_cast<store::Kind>(i + 1);
    row(util::format("entries.%s", store::to_string(kind)).c_str(),
        util::format("%llu", static_cast<unsigned long long>(
                                 stats.entries_by_kind[i])));
    row(util::format("bytes.%s", store::to_string(kind)).c_str(),
        util::format("%llu", static_cast<unsigned long long>(
                                 stats.bytes_by_kind[i])));
  }
  row("hits",
      util::format("%llu", static_cast<unsigned long long>(stats.hits)));
  row("misses",
      util::format("%llu", static_cast<unsigned long long>(stats.misses)));
  row("corrupt",
      util::format("%llu", static_cast<unsigned long long>(stats.corrupt)));
  row("evictions", util::format("%llu", static_cast<unsigned long long>(
                                            stats.evictions)));
  row("writes",
      util::format("%llu", static_cast<unsigned long long>(stats.writes)));
  out = render(report, common.format);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::CliArgs args(argc - 1, argv + 1);
  try {
    const util::CommonOptions common = util::parse_common_options(args);

    // NVP_METRICS: "0"/"off"/"false" disables collection; any other
    // non-boolean value is a manifest path (same as --metrics-json).
    std::string metrics_json = common.metrics_json;
    const std::string env = obs::init_from_env();
    if (metrics_json.empty() && obs::enabled() && !env.empty() &&
        env != "1" && env != "on" && env != "true" && env != "yes")
      metrics_json = env;
    if (common.trace || !metrics_json.empty()) obs::set_tracing(true);
    if (common.jobs > 0)
      runtime::set_default_jobs(static_cast<std::size_t>(common.jobs));

    // The flags become the request nvpd would be sent (a command nvpd does
    // not serve decodes as analyze, for its params and options).
    const bool wire_method = command == "analyze" || command == "sweep" ||
                             command == "simulate" || command == "monitor";
    const bool remote_only = command == "stats" || command == "shutdown";
    if (args.has("remote") && (!(wire_method || remote_only) ||
                               args.has("model"))) {
      std::fprintf(stderr,
                   "error: --remote runs only analyze|sweep|simulate|monitor "
                   "of a --paper model\n");
      return 1;
    }
    const std::string method =
        wire_method || remote_only ? command : "analyze";
    service::Request request;
    std::string payload;
    std::string error;
    std::optional<service::wire::Value> decoded;
    try {
      payload = service::cli_request_json(1, method, args);
      decoded = service::wire::parse(payload, &error);
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
    if (!decoded || !service::parse_request(*decoded, &request, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (const std::string bad = check_local_flags(command, method, args);
        !bad.empty()) {
      std::fprintf(stderr, "error: %s\n", bad.c_str());
      return 1;
    }

    std::string out;
    int status = 1;
    if (args.has("remote") || remote_only) {
      status = run_remote(command, payload, args, out);
    } else {
      core::Engine::Options engine_options;
      engine_options.strict = args.has("strict");
      // --store wins over NVP_STORE; either opens the process-wide store
      // the staged pipeline's disk tier (and nvpd's workers) read through.
      engine_options.store_dir = args.get("store", "");
      engine_options.store_cap_mb =
          static_cast<std::uint64_t>(args.get_double("store-cap-mb", 0.0));
      if (engine_options.store_dir.empty()) store::open_global_from_env();
      const core::Engine engine(request.options, engine_options);
      const core::SystemParameters& params = request.params;
      const bool model = args.has("model");
      if (command == "serve")
        return serve(args, request.options);
      else if (command == "analyze")
        status = model ? analyze_model(args, request.options.solver, out)
                       : analyze_paper(engine, request, common, out);
      else if (command == "simulate")
        status = model ? simulate_model(args, request.simulate, out)
                       : simulate_paper(engine, request, common, out);
      else if (command == "sweep")
        status = sweep(engine, request, common, out);
      else if (command == "monitor")
        status = monitor_session(engine, request.monitor, common, out);
      else if (command == "crossovers")
        status = crossovers(engine, params, args, common, out);
      else if (command == "optimize")
        status = optimize(engine, params, args, common, out);
      else if (command == "sensitivity")
        status = sensitivity(engine, params, args, common, out);
      else if (command == "archspace")
        status = archspace(engine, params, args, common, out);
      else if (command == "export")
        status = export_model(args, params, out);
      else if (command == "store")
        status = store_command(args, common, out);
      else
        return usage();
    }
    if (status != 0) return status;

    if (!emit(out, common.output)) return 2;
    if (common.trace)
      std::fprintf(
          stderr, "%s",
          obs::span_tree_text(obs::TraceRecorder::global().finished())
              .c_str());
    if (common.metrics_dump) dump_metrics();
    if (common.cache_stats) dump_cache_stats();
    if (!metrics_json.empty()) {
      obs::RunManifest manifest;
      manifest.tool = "nvpcli";
      for (int i = 1; i < argc; ++i) {
        if (i > 1) manifest.command += ' ';
        manifest.command += argv[i];
      }
      for (const auto& key : args.keys())
        manifest.params[key] = args.get(key, "");
      manifest.seed = common.seed;
      manifest.jobs = runtime::default_jobs();
      manifest.capture();
      manifest.write(metrics_json);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
