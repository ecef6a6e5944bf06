// The knob tables: the parse rules (common/knob.h), each command's
// defaults and documented command lines (tools/cli/commands.h), and the
// bad tokens that exit 2 naming their knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "common/knob.h"

namespace ctrlshed {
namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream in(line);
  return {std::istream_iterator<std::string>(in), {}};
}

template <class Args>
std::string ParseLine(const std::string& line, Args* args) {
  std::vector<std::string> tokens = Tokens(line);
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return Parse(static_cast<int>(argv.size()), argv.data(), args);
}

template <class Args>
Args Parsed(const std::string& line) {
  Args args;
  EXPECT_EQ(ParseLine(line, &args), "") << line;
  return args;
}

std::string Walked(Knobs knobs, const std::string& line,
                   std::vector<std::string>* positionals = nullptr) {
  std::vector<std::string> tokens = Tokens(line);
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return ParseKnobs("cmd", knobs, static_cast<int>(argv.size()), argv.data(),
                    positionals);
}

// --- The parse rules ---------------------------------------------------

TEST(KnobTest, TokenFormsLandTheSameValue) {
  for (const char* line :
       {"telemetry_dir=x", "--telemetry-dir x", "--telemetry-dir=x",
        "--telemetry_dir x", "telemetry_dir=y telemetry_dir=x"}) {
    std::string dir;
    EXPECT_EQ(Walked({Text("telemetry_dir", &dir, "")}, line), "") << line;
    EXPECT_EQ(dir, "x") << line;
  }
  // A '-' in a value stays, and only GNU keys read '-' as '_'.
  std::string dir;
  EXPECT_EQ(Walked({Text("telemetry_dir", &dir, "")}, "--telemetry-dir=a-b"),
            "");
  EXPECT_EQ(dir, "a-b");
  EXPECT_NE(Walked({Text("telemetry_dir", &dir, "")}, "telemetry-dir=x"), "");
  EXPECT_EQ(Walked({Text("out", &dir, "")}, "--out"),
            "option --out needs a value");
}

TEST(KnobTest, BareTokensArePositionalsOnlyWhereTaken) {
  std::string out;
  std::vector<std::string> inputs;
  EXPECT_EQ(Walked({Text("out", &out, "")}, "a.json --out m.json b.json",
                   &inputs),
            "");
  EXPECT_EQ(inputs, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(out, "m.json");
  EXPECT_EQ(Walked({Text("out", &out, "")}, "a.json"),
            "expected key=value, got 'a.json'");
}

TEST(KnobTest, NumberIsTheWholeTokenAndFinite) {
  double x = 5.0;
  for (const char* bad : {"2x", "", "nan", "inf", "-inf", "1e999", "x2"}) {
    EXPECT_EQ(Walked({Number("x", &x, "")}, std::string("x=") + bad),
              std::string("x must be a number, got '") + bad + "'");
  }
  EXPECT_EQ(x, 5.0);
  EXPECT_EQ(Walked({Number("x", &x, "")}, "x=-2.5e1"), "");
  EXPECT_EQ(x, -25.0);
}

TEST(KnobTest, NumberRangeIsOpenAtBothEnds) {
  double poles = 0.0;
  for (const char* bad : {"1", "-1", "1.5", "-1.0001"}) {
    EXPECT_EQ(Walked({Number("poles", &poles, "", -1.0, 1.0)},
                     std::string("poles=") + bad),
              std::string("poles must be a number in (-1, 1), got '") +
                  bad + "'");
  }
  for (const char* good : {"0.999999", "-0.999999", "0"}) {
    EXPECT_EQ(Walked({Number("poles", &poles, "", -1.0, 1.0)},
                     std::string("poles=") + good),
              "");
  }
  double beta = 1.0;
  EXPECT_EQ(Walked({Number("beta", &beta, "", 0.0)}, "beta=0"),
            "beta must be a number > 0, got '0'");
}

TEST(KnobTest, IntegerIsDigitsOnlyInsideItsBounds) {
  int workers = 1;
  for (const char* bad :
       {"+2", "-1", "2.0", "", "0", "65", "0x2", "18446744073709551616"}) {
    EXPECT_EQ(Walked({Integer("workers", &workers, 1, 64, "")},
                     std::string("workers=") + bad),
              std::string("workers must be an integer in [1, 64], got '") +
                  bad + "'");
  }
  EXPECT_EQ(workers, 1);
  for (int good : {1, 64}) {
    EXPECT_EQ(Walked({Integer("workers", &workers, 1, 64, "")},
                     "workers=" + std::to_string(good)),
              "");
    EXPECT_EQ(workers, good);
  }
  uint64_t seed = 0;
  EXPECT_EQ(Walked({Integer("seed", &seed, 0, UINT64_MAX, "")},
                   "seed=18446744073709551615"),
            "");
  EXPECT_EQ(seed, UINT64_MAX);
}

TEST(KnobTest, SwitchIsExactlyZeroOrOne) {
  bool on = false;
  for (const char* bad : {"2", "yes", "true", "", "01"}) {
    EXPECT_EQ(Walked({Switch("gate", &on, "")}, std::string("gate=") + bad),
              std::string("gate must be 0|1, got '") + bad + "'");
  }
  EXPECT_EQ(Walked({Switch("gate", &on, "")}, "gate=1"), "");
  EXPECT_TRUE(on);
}

TEST(KnobTest, UnknownKeyListsTheCommandsKeys) {
  double a = 0.0, b = 0.0;
  EXPECT_EQ(Walked({Number("alpha", &a, ""), Number("beta", &b, "")},
                   "alhpa=1"),
            "unknown option 'alhpa'; cmd takes alpha beta");
}

TEST(KnobTest, HelpPrintsEachRowAtItsValue) {
  double duration = 60.0;
  int port = -1;
  char* text = nullptr;
  size_t size = 0;
  std::FILE* out = open_memstream(&text, &size);
  PrintKnobs({Number("duration", &duration, "run length"),
              Integer("telemetry_port", &port, 0, 65535, "port")},
             out);
  std::fclose(out);
  EXPECT_EQ(std::string(text),
            "  duration=60              run length (a number)\n"
            "  telemetry_port=          port (an integer in [0, 65535])\n");
  std::free(text);
}

// --- The command tables ------------------------------------------------

#define EXPECT_SAME(field) EXPECT_EQ(got.field, want.field) << #field

void ExpectSame(const ExperimentConfig& got, const ExperimentConfig& want) {
  EXPECT_SAME(method);
  EXPECT_SAME(workload);
  EXPECT_SAME(duration);
  EXPECT_SAME(period);
  EXPECT_SAME(target_delay);
  EXPECT_SAME(headroom_true);
  EXPECT_SAME(headroom_est);
  EXPECT_SAME(capacity_rate);
  EXPECT_SAME(vary_cost);
  EXPECT_SAME(use_queue_shedder);
  EXPECT_SAME(cost_aware_shedding);
  EXPECT_SAME(estimation_noise);
  EXPECT_SAME(adapt_headroom);
  EXPECT_SAME(constant_rate);
  EXPECT_SAME(pareto.beta);
  EXPECT_SAME(web.mean_rate);
  EXPECT_SAME(seed);
  EXPECT_SAME(gains.b0);
  EXPECT_SAME(gains.b1);
  EXPECT_SAME(gains.a);
  EXPECT_SAME(telemetry.dir);
  EXPECT_SAME(telemetry.server_port);
  EXPECT_SAME(telemetry.server_bind_address);
  EXPECT_SAME(telemetry.server_auth_token);
}

void ExpectSame(const RtRunConfig& got, const RtRunConfig& want) {
  ExpectSame(got.base, want.base);
  EXPECT_SAME(time_compression);
  EXPECT_SAME(ring_capacity);
  EXPECT_SAME(batch);
  EXPECT_SAME(pin_cpus);
  EXPECT_SAME(workers);
}

void ExpectSame(const ClusterNodeConfig& got, const ClusterNodeConfig& want) {
  ExpectSame(got.base, want.base);
  EXPECT_SAME(node_id);
  EXPECT_SAME(workers);
  EXPECT_SAME(ingress_port);
  EXPECT_SAME(controller_host);
  EXPECT_SAME(controller_port);
  EXPECT_SAME(time_compression);
  EXPECT_SAME(ring_capacity);
  EXPECT_SAME(batch);
  EXPECT_SAME(pin_cpus);
}

void ExpectSame(const ClusterArgs& got, const ClusterArgs& want) {
  ExpectSame(got.cfg.base, want.cfg.base);
  EXPECT_SAME(cfg.port);
  EXPECT_SAME(cfg.stale_periods);
  EXPECT_SAME(cfg.min_nodes);
  EXPECT_SAME(cfg.time_compression);
  EXPECT_SAME(gate);
  EXPECT_SAME(trace_out);
}

void ExpectSame(const ClusterFeedConfig& got, const ClusterFeedConfig& want) {
  ExpectSame(got.base, want.base);
  EXPECT_SAME(host);
  EXPECT_SAME(port);
  EXPECT_SAME(source_id);
  EXPECT_SAME(sources);
  EXPECT_SAME(rate_scale);
  EXPECT_SAME(time_compression);
}

/// The config the hand-written parser built from no knobs, each value as
/// its fallback spelled it.
ExperimentConfig FormerBase(double duration, WorkloadKind workload) {
  ExperimentConfig c;
  c.method = Method::kCtrl;
  c.workload = workload;
  c.duration = duration;
  c.period = 1.0;
  c.target_delay = 2.0;
  c.headroom_true = 0.97;
  c.headroom_est = 0.97;
  c.capacity_rate = 190.0;
  c.vary_cost = c.use_queue_shedder = c.cost_aware_shedding = false;
  c.adapt_headroom = false;
  c.estimation_noise = 0.0;
  c.constant_rate = 150.0;
  c.pareto.beta = 1.0;
  c.web.mean_rate = 200.0;
  c.seed = 42;
  c.gains = DesignPolePlacement(0.7, 0.7);
  c.telemetry.dir = "";
  c.telemetry.server_port = -1;
  c.telemetry.server_bind_address = "127.0.0.1";
  c.telemetry.server_auth_token = "";
  return c;
}

RtRunConfig FormerRt() {
  RtRunConfig c;
  c.base = FormerBase(60.0, WorkloadKind::kPareto);
  c.time_compression = 20.0;
  c.ring_capacity = 4096;
  c.batch = 1;
  c.pin_cpus = "";
  c.workers = 1;
  return c;
}

/// rt_soak's config as its atof parser built it.
RtRunConfig FormerSoak(double duration, double compress, double overload,
                       int workers, size_t batch, bool pin) {
  RtRunConfig c = FormerRt();
  c.base = FormerBase(duration, WorkloadKind::kWeb);
  c.base.web.mean_rate = overload * 190.0;
  c.time_compression = compress;
  c.workers = workers;
  c.batch = batch;
  c.pin_cpus = pin ? "auto" : "";
  return c;
}

TEST(CommandTableTest, NoKnobsGiveTheFormerDefaults) {
  ExpectSame(Parsed<RunArgs>("").cfg,
             FormerBase(400.0, WorkloadKind::kPareto));
  EXPECT_EQ(Parsed<RunArgs>("").trace_out, "");
  ExpectSame(Parsed<RtArgs>("").cfg, FormerRt());

  ClusterNodeConfig node;
  node.base = FormerBase(60.0, WorkloadKind::kWeb);
  node.node_id = 0;
  node.workers = 1;
  node.ingress_port = 0;
  node.controller_host = "127.0.0.1";
  node.controller_port = 0;
  node.time_compression = 20.0;
  node.ring_capacity = 4096;
  node.batch = 1;
  node.pin_cpus = "";
  ExpectSame(Parsed<NodeArgs>("").cfg, node);

  ClusterArgs cluster;
  cluster.cfg.base = FormerBase(60.0, WorkloadKind::kWeb);
  cluster.cfg.port = 0;
  cluster.cfg.stale_periods = 3;
  cluster.cfg.min_nodes = 0;
  cluster.cfg.time_compression = 20.0;
  cluster.gate = false;
  cluster.trace_out = "";
  ExpectSame(Parsed<ClusterArgs>(""), cluster);

  // feed has no run without a port.
  ClusterFeedConfig feed;
  feed.base = FormerBase(60.0, WorkloadKind::kWeb);
  feed.host = "127.0.0.1";
  feed.port = 1;
  feed.source_id = 0;
  feed.sources = 1;
  feed.rate_scale = 1.0;
  feed.time_compression = 20.0;
  ExpectSame(Parsed<FeedArgs>("port=1").cfg, feed);

  const TraceArgs trace = Parsed<TraceArgs>("");
  EXPECT_EQ(trace.kind, TraceKind::kPareto);
  EXPECT_EQ(trace.cfg.duration, 400.0);
  EXPECT_EQ(trace.cfg.seed, 42u);
  EXPECT_EQ(trace.cfg.pareto.beta, 1.0);

  const TraceMergeArgs merge = Parsed<TraceMergeArgs>("a.json b.json");
  EXPECT_EQ(merge.out, "trace_merged.json");
  EXPECT_FALSE(merge.require_period_overlap);

  const DesignArgs design = Parsed<DesignArgs>("");
  const ControllerGains gains = DesignPolePlacement(0.7, 0.7, -0.8);
  EXPECT_EQ(design.gains.b0, gains.b0);
  EXPECT_EQ(design.gains.b1, gains.b1);
  EXPECT_EQ(design.gains.a, gains.a);

  ExpectSame(Parsed<SoakArgs>("").cfg, FormerSoak(60, 15, 2, 1, 1, false));

  // overhead_telemetry's replay, as its RunOnce built it.
  RtRunConfig overhead_cfg = FormerRt();
  overhead_cfg.base.workload = WorkloadKind::kConstant;
  overhead_cfg.base.constant_rate = 380.0;
  overhead_cfg.base.duration = 40.0;
  const OverheadArgs overhead = Parsed<OverheadArgs>("");
  ExpectSame(overhead.cfg, overhead_cfg);
  EXPECT_EQ(overhead.reps, 2);
  EXPECT_EQ(overhead.out, "out/overhead_telemetry");
  EXPECT_TRUE(overhead.cluster);
}

// Every command line README.md, docs/, the CI workflows,
// tools/cluster_smoke.sh and the verify notes write, with the fields it
// sets; every other field keeps its default.

TEST(CommandTableTest, DocumentedRunLines) {
  struct Line {
    const char* line;
    std::function<void(RunArgs&)> set;
  };
  const Line lines[] = {
      {"method=ctrl workload=pareto vary_cost=1",
       [](RunArgs& a) { a.cfg.vary_cost = true; }},
      {"method=ctrl workload=pareto --telemetry-dir out/sim",
       [](RunArgs& a) { a.cfg.telemetry.dir = "out/sim"; }},
      {"method=ctrl workload=pareto duration=60",
       [](RunArgs& a) { a.cfg.duration = 60.0; }},
      {"method=ctrl workload=pareto duration=400 yd=2 seed=7",
       [](RunArgs& a) { a.cfg.seed = 7; }},
      {"method=aurora workload=web vary_cost=1 trace_out=run.csv",
       [](RunArgs& a) {
         a.cfg.method = Method::kAurora;
         a.cfg.workload = WorkloadKind::kWeb;
         a.cfg.vary_cost = true;
         a.trace_out = "run.csv";
       }},
      {"duration=200 queue_shed=1 cost_aware=1 vary_cost=1 noise=0.1",
       [](RunArgs& a) {
         a.cfg.duration = 200.0;
         a.cfg.use_queue_shedder = a.cfg.cost_aware_shedding = true;
         a.cfg.vary_cost = true;
         a.cfg.estimation_noise = 0.1;
       }},
  };
  for (const Line& l : lines) {
    SCOPED_TRACE(l.line);
    RunArgs want;
    l.set(want);
    const RunArgs got = Parsed<RunArgs>(l.line);
    ExpectSame(got.cfg, want.cfg);
    EXPECT_EQ(got.trace_out, want.trace_out);
  }
}

TEST(CommandTableTest, DocumentedRtLines) {
  struct Line {
    const char* line;
    std::function<void(RtRunConfig&)> set;
  };
  const auto smoke = [](RtRunConfig& c, double duration, const char* dir,
                        int port) {
    c.base.workload = WorkloadKind::kConstant;
    c.base.constant_rate = 380.0;
    c.base.duration = duration;
    c.time_compression = 10.0;
    c.base.telemetry.dir = dir;
    c.base.telemetry.server_port = port;
  };
  const Line lines[] = {
      {"method=ctrl workload=web duration=120 compress=20",
       [](RtRunConfig& c) {
         c.base.workload = WorkloadKind::kWeb;
         c.base.duration = 120.0;
       }},
      {"method=ctrl workload=web --telemetry-dir out/ --telemetry-port 8080",
       [](RtRunConfig& c) {
         c.base.workload = WorkloadKind::kWeb;
         c.base.telemetry.dir = "out/";
         c.base.telemetry.server_port = 8080;
       }},
      {"method=ctrl workload=web duration=60 --telemetry-dir out/rt "
       "--telemetry-port 8080",
       [](RtRunConfig& c) {
         c.base.workload = WorkloadKind::kWeb;
         c.base.telemetry.dir = "out/rt";
         c.base.telemetry.server_port = 8080;
       }},
      {"method=ctrl workload=web duration=300 compress=1 --telemetry-port 8080",
       [](RtRunConfig& c) {
         c.base.workload = WorkloadKind::kWeb;
         c.base.duration = 300.0;
         c.time_compression = 1.0;
         c.base.telemetry.server_port = 8080;
       }},
      {"duration=30 rate=150 batch=64",
       [](RtRunConfig& c) {
         c.base.duration = 30.0;
         c.batch = 64;
       }},
      {"duration=30 rate=150 batch=64 pin_cpus=auto",
       [](RtRunConfig& c) {
         c.base.duration = 30.0;
         c.batch = 64;
         c.pin_cpus = "auto";
       }},
      {"method=ctrl workload=constant rate=380 duration=120 compress=10 "
       "telemetry_dir=out/smoke telemetry_port=18321",
       [&](RtRunConfig& c) { smoke(c, 120.0, "out/smoke", 18321); }},
      {"method=ctrl workload=constant rate=380 duration=40 compress=10 "
       "telemetry_dir=out/auth_smoke telemetry_port=18322 "
       "telemetry_bind=0.0.0.0 telemetry_token=ci-smoke-token",
       [&](RtRunConfig& c) {
         smoke(c, 40.0, "out/auth_smoke", 18322);
         c.base.telemetry.server_bind_address = "0.0.0.0";
         c.base.telemetry.server_auth_token = "ci-smoke-token";
       }},
      {"method=ctrl workload=constant rate=380 duration=40 compress=10 "
       "telemetry_dir=out/auth_smoke_loop telemetry_port=18323",
       [&](RtRunConfig& c) { smoke(c, 40.0, "out/auth_smoke_loop", 18323); }},
      {"method=ctrl workload=web duration=40 compress=20",
       [](RtRunConfig& c) {
         c.base.workload = WorkloadKind::kWeb;
         c.base.duration = 40.0;
       }},
      {"duration=10 --telemetry-dir DIR",
       [](RtRunConfig& c) {
         c.base.duration = 10.0;
         c.base.telemetry.dir = "DIR";
       }},
  };
  for (const Line& l : lines) {
    SCOPED_TRACE(l.line);
    RtRunConfig want = FormerRt();
    l.set(want);
    ExpectSame(Parsed<RtArgs>(l.line).cfg, want);
  }
}

TEST(CommandTableTest, DocumentedClusterLines) {
  // README's two-node cluster.
  ClusterArgs want;
  want.cfg.port = 7400;
  want.cfg.min_nodes = 2;
  want.cfg.time_compression = 10.0;
  want.gate = true;
  want.cfg.base.telemetry.dir = "out/ctl";
  want.cfg.base.telemetry.server_port = 8080;
  ExpectSame(Parsed<ClusterArgs>("port=7400 min_nodes=2 duration=60 "
                                 "compress=10 gate=1 telemetry_dir=out/ctl "
                                 "telemetry_port=8080"),
             want);
  // docs/observability.md's hardened bind.
  want = ClusterArgs();
  want.cfg.base.telemetry.server_port = 8080;
  want.cfg.base.telemetry.server_bind_address = "0.0.0.0";
  want.cfg.base.telemetry.server_auth_token = "SECRET";
  ExpectSame(Parsed<ClusterArgs>("telemetry_port=8080 telemetry_bind=0.0.0.0 "
                                 "telemetry_token=SECRET"),
             want);
  // tools/cluster_smoke.sh, with its default DURATION and COMPRESS.
  want = ClusterArgs();
  want.cfg.port = 0;
  want.cfg.min_nodes = 2;
  want.cfg.time_compression = 10.0;
  want.gate = true;
  want.cfg.base.telemetry.dir = "o/tele_ctl";
  want.cfg.base.telemetry.server_port = 0;
  ExpectSame(Parsed<ClusterArgs>("port=0 duration=60 compress=10 min_nodes=2 "
                                 "gate=1 telemetry_dir=o/tele_ctl "
                                 "telemetry_port=0"),
             want);
  want.gate = false;
  want.cfg.base.duration = 600.0;
  want.cfg.base.telemetry.dir = "o/tele_ctl2";
  ExpectSame(Parsed<ClusterArgs>("port=0 duration=600 compress=10 min_nodes=2 "
                                 "telemetry_dir=o/tele_ctl2 telemetry_port=0"),
             want);
}

TEST(CommandTableTest, DocumentedNodeAndFeedLines) {
  for (int id : {0, 1}) {
    const std::string n = std::to_string(id);
    NodeArgs want;
    want.cfg.node_id = id;
    want.cfg.ingress_port = 7410 + id;
    want.cfg.controller_port = 7400;
    want.cfg.time_compression = 10.0;
    want.cfg.base.telemetry.dir = "out/n" + n;
    const std::string port = std::to_string(7410 + id);
    ExpectSame(Parsed<NodeArgs>("id=" + n + " port=" + port +
                                " controller_port=7400 duration=60 "
                                "compress=10 telemetry_dir=out/n" + n)
                   .cfg,
               want.cfg);
    // tools/cluster_smoke.sh, both phases.
    want.cfg.ingress_port = 0;
    want.cfg.controller_port = 41234;
    want.cfg.base.telemetry.dir = "o/tele_n" + n;
    ExpectSame(Parsed<NodeArgs>("id=" + n + " workers=1 port=0 "
                                "controller_port=41234 duration=60 "
                                "compress=10 telemetry_dir=o/tele_n" + n)
                   .cfg,
               want.cfg);
    want.cfg.base.duration = 600.0;
    ExpectSame(Parsed<NodeArgs>("id=" + n + " workers=1 port=0 "
                                "controller_port=41234 duration=600 "
                                "compress=10 telemetry_dir=o/tele_n" + n)
                   .cfg,
               want.cfg);

    FeedArgs feed;
    feed.cfg.port = 7410 + id;
    feed.cfg.base.web.mean_rate = 380.0;
    feed.cfg.time_compression = 10.0;
    feed.cfg.base.seed = 42 + id;
    ExpectSame(Parsed<FeedArgs>("port=" + port +
                                " workload=web mean_rate=380 duration=60 "
                                "compress=10 seed=" + std::to_string(42 + id))
                   .cfg,
               feed.cfg);
    feed.cfg.port = 40001;
    feed.cfg.source_id = id;
    ExpectSame(Parsed<FeedArgs>("host=127.0.0.1 port=40001 workload=web "
                                "mean_rate=380 duration=60 compress=10 seed=" +
                                std::to_string(42 + id) + " source=" + n)
                   .cfg,
               feed.cfg);
  }
}

TEST(CommandTableTest, DocumentedTraceMergeAndDesignLines) {
  const TraceArgs trace = Parsed<TraceArgs>("kind=web duration=400 seed=42");
  EXPECT_EQ(trace.kind, TraceKind::kWeb);
  EXPECT_EQ(trace.cfg.duration, 400.0);
  EXPECT_EQ(trace.cfg.seed, 42u);

  TraceMergeArgs merge = Parsed<TraceMergeArgs>(
      "out/ctl/trace.json out/n0/trace.json out/n1/trace.json out=merged.json");
  EXPECT_EQ(merge.inputs, (std::vector<std::string>{"out/ctl/trace.json",
                                                    "out/n0/trace.json",
                                                    "out/n1/trace.json"}));
  EXPECT_EQ(merge.out, "merged.json");
  EXPECT_FALSE(merge.require_period_overlap);
  merge = Parsed<TraceMergeArgs>(
      "o/tele_ctl/trace.json o/tele_n0/trace.json o/tele_n1/trace.json "
      "out=o/merged_trace.json require_period_overlap=1");
  EXPECT_EQ(merge.inputs.size(), 3u);
  EXPECT_EQ(merge.out, "o/merged_trace.json");
  EXPECT_TRUE(merge.require_period_overlap);

  const DesignArgs design = Parsed<DesignArgs>("poles=0.5 a=-0.6");
  const ControllerGains gains = DesignPolePlacement(0.5, 0.5, -0.6);
  EXPECT_EQ(design.gains.b0, gains.b0);
  EXPECT_EQ(design.gains.b1, gains.b1);
  EXPECT_EQ(design.gains.a, gains.a);
  EXPECT_EQ(Parsed<DesignArgs>("poles=0.7").poles, 0.7);
}

TEST(CommandTableTest, DocumentedSoakAndOverheadLines) {
  // CI's sanitizer soak and the nightly soak.
  ExpectSame(Parsed<SoakArgs>("compress=10").cfg,
             FormerSoak(60, 10, 2, 1, 1, false));
  ExpectSame(
      Parsed<SoakArgs>("compress=1 duration=900 workers=4 overload=8 pin=1")
          .cfg,
      FormerSoak(900, 1, 8, 4, 1, true));
  ExpectSame(Parsed<SoakArgs>("duration=60 workers=4 batch=64 pin=1").cfg,
             FormerSoak(60, 15, 2, 4, 64, true));
  RtRunConfig tele = FormerSoak(60, 15, 2, 1, 1, false);
  tele.base.telemetry.dir = "out/soak";
  tele.base.telemetry.server_port = 0;
  ExpectSame(Parsed<SoakArgs>("telemetry_dir=out/soak telemetry_port=0").cfg,
             tele);
  const OverheadArgs o =
      Parsed<OverheadArgs>("duration=10 compress=5 rate=200 reps=1 out=x "
                           "cluster=0");
  EXPECT_EQ(o.cfg.base.duration, 10.0);
  EXPECT_EQ(o.cfg.time_compression, 5.0);
  EXPECT_EQ(o.cfg.base.constant_rate, 200.0);
  EXPECT_EQ(o.reps, 1);
  EXPECT_EQ(o.out, "x");
  EXPECT_FALSE(o.cluster);
}

// Tokens the hand-written parsers ran or aborted on, which now exit 2 with
// an error naming their knob.
TEST(CommandTableTest, BadTokensNameTheirKnob) {
  struct Case {
    std::string command, line, knob;
  };
  const Case cases[] = {
      {"run", "beta=0", "beta"},
      {"run", "beta=-1", "beta"},
      {"trace", "kind=pareto beta=0", "beta"},
      {"trace", "kind=web beta=2", "beta"},
      {"trace", "duration=0", "duration"},
      {"trace", "duration=-5", "duration"},
      {"trace", "kind=pareto duration=0", "duration"},
      {"trace", "kind=cost duration=0", "duration"},
      {"run", "workload=constant rate=nan", "rate"},
      {"run", "workload=constant rate=inf", "rate"},
      {"run", "workload=constant rate=-3", "rate"},
      {"run", "duration=inf", "duration"},
      {"run", "yd=inf", "yd"},
      {"run", "T=inf", "T"},
      {"run", "poles=nan", "poles"},
      {"run", "poles=1.5", "poles"},
      {"rt", "poles=-1", "poles"},
      {"cluster", "poles=1", "poles"},
      {"design", "poles=nan", "poles"},
      {"design", "a=nan", "a"},
      {"run", "vary_cost=2", "vary_cost"},
      {"cluster", "gate=2", "gate"},
      {"rt", "workers=+2", "workers"},
      {"rt", "telemetry_port=+2", "telemetry_port"},
      {"node", "workers=+2", "workers"},
      {"rt", "busy_spin=1", "busy_spin"},
      {"node", "busy_spin=1", "busy_spin"},
      {"rt", "batch_adaptive=1", "batch_adaptive"},
      {"feed", "", "port"},
      {"run", "dration=9", "dration"},
      {"soak", "seed=abc", "seed"},
      {"soak", "yd=2s", "yd"},
      {"soak", "dration=9", "dration"},
      {"soak", "duration=abc", "duration"},
      {"soak", "batch_adaptive=1", "batch_adaptive"},
      {"overhead", "reps=0", "reps"},
  };
  for (const Case& c : cases) {
    std::string error;
    if (c.command == "run") {
      RunArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "rt") {
      RtArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "node") {
      NodeArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "cluster") {
      ClusterArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "feed") {
      FeedArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "trace") {
      TraceArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "design") {
      DesignArgs a;
      error = ParseLine(c.line, &a);
    } else if (c.command == "soak") {
      SoakArgs a;
      error = ParseLine(c.line, &a);
    } else {
      OverheadArgs a;
      error = ParseLine(c.line, &a);
    }
    EXPECT_NE(error.find(c.knob), std::string::npos)
        << c.command << " " << c.line << ": '" << error << "'";
  }
  // The unknown-key message lists the command's keys.
  RunArgs run;
  const std::string error = ParseLine("dration=9", &run);
  EXPECT_NE(error.find("run takes method workload duration"),
            std::string::npos)
      << error;
}

/// The keys the unknown-key message of `Args`' command lists, sorted.
template <class Args>
std::vector<std::string> KeysOf() {
  Args args;
  const std::string error = ParseLine("no_such_knob=1", &args);
  std::vector<std::string> keys =
      Tokens(error.substr(error.find(" takes ") + 7));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> Sorted(const std::string& keys) {
  std::vector<std::string> v = Tokens(keys);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CommandTableTest, EachCommandKeepsItsFormerKeys) {
  const std::string telemetry =
      " telemetry_dir telemetry_port telemetry_bind telemetry_token";
  const std::string run =
      "method workload duration T yd H_true H capacity vary_cost queue_shed "
      "cost_aware noise adapt_H rate beta seed poles trace_out" + telemetry;
  EXPECT_EQ(KeysOf<RunArgs>(), Sorted(run));
  EXPECT_EQ(KeysOf<RtArgs>(),
            Sorted(run + " compress ring batch pin_cpus workers"));
  EXPECT_EQ(KeysOf<NodeArgs>(),
            Sorted("id workers port controller_host controller_port duration "
                   "T yd H_true H capacity vary_cost adapt_H seed compress "
                   "ring batch pin_cpus" + telemetry));
  EXPECT_EQ(KeysOf<ClusterArgs>(),
            Sorted("port duration T yd H_true H capacity queue_shed "
                   "cost_aware adapt_H poles stale_periods min_nodes "
                   "compress gate trace_out" + telemetry));
  EXPECT_EQ(KeysOf<FeedArgs>(),
            Sorted("host port source sources scale workload duration rate "
                   "beta mean_rate seed compress"));
  EXPECT_EQ(KeysOf<TraceArgs>(), Sorted("kind duration seed beta"));
  EXPECT_EQ(KeysOf<DesignArgs>(), Sorted("poles a"));
  EXPECT_EQ(KeysOf<SoakArgs>(),
            Sorted("duration compress yd overload seed workers batch pin "
                   "telemetry_dir telemetry_port"));
  EXPECT_EQ(KeysOf<OverheadArgs>(),
            Sorted("duration compress rate reps out cluster"));
}

TEST(CommandTableTest, HelpListsEveryAcceptedKnob) {
  char* text = nullptr;
  size_t size = 0;
  std::FILE* out = open_memstream(&text, &size);
  PrintHelp(out);
  std::fclose(out);
  const std::string help(text);
  std::free(text);
  const auto section = [&](const std::string& name) {
    const size_t at = help.find("\nctrlshed " + name + " ");
    const size_t end = help.find("\nctrlshed ", at + 1);
    return help.substr(at, end - at);
  };
  // Accepted before the table, missing from the hand-kept help.
  for (const char* knob : {"H_true=0.97", "adapt_H=0", "telemetry_bind=",
                           "telemetry_token="}) {
    EXPECT_NE(section("cluster").find(knob), std::string::npos) << knob;
  }
  for (const char* knob :
       {"adapt_H=0", "telemetry_bind=", "telemetry_token="}) {
    EXPECT_NE(section("node").find(knob), std::string::npos) << knob;
  }
  EXPECT_NE(section("run").find("duration=400"), std::string::npos);
  EXPECT_NE(section("rt").find("duration=60"), std::string::npos);
  EXPECT_NE(section("feed").find("workload=web"), std::string::npos);
  EXPECT_NE(help.find("SIGUSR1"), std::string::npos);
}

}  // namespace
}  // namespace ctrlshed
