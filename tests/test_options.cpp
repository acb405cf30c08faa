// Tests of the shared declarative CLI options layer (ctest label: net — it
// ships with the networked-runtime PR and gates the same binaries).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/options.hpp"
#include "streams/registry.hpp"

namespace topkmon {
namespace {

/// argv builder: keeps the strings alive for the char* view Flags wants.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "test_binary");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(Options, BindingsApplyGivenFlagsAndKeepDefaults) {
  std::string proto = "combined";
  std::uint64_t steps = 1000;
  double eps = 0.1;
  bool strict = true;
  std::size_t window = 0;

  Options opts("t", "test");
  opts.add_string("protocol", &proto, "p");
  opts.add_uint("steps", &steps, "s");
  opts.add_double("eps", &eps, "e");
  opts.add_bool("strict", &strict, "st");
  opts.add_size("window", &window, "w");

  Argv a({"--protocol=exact_topk", "--eps", "0.25", "--window", "64"});
  std::ostringstream err;
  EXPECT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
  EXPECT_EQ(proto, "exact_topk");
  EXPECT_EQ(steps, 1000u);  // untouched default
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_TRUE(strict);  // bool default survives
  EXPECT_EQ(window, 64u);
}

TEST(Options, RejectsUnknownFlags) {
  std::string proto = "combined";
  Options opts("t", "test");
  opts.add_string("protocol", &proto, "p");

  Argv a({"--protocl=exact_topk"});  // typo
  std::ostringstream err;
  EXPECT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kError);
  EXPECT_NE(err.str().find("unknown flag --protocl"), std::string::npos);
}

TEST(Options, RejectsMalformedNumbersNamingTheFlag) {
  const struct {
    std::vector<std::string> args;
    const char* message;
  } cases[] = {
      {{"--steps=abc"}, "invalid value 'abc' for --steps"},
      {{"--steps=-3"}, "invalid value '-3' for --steps"},
      {{"--window", "12x"}, "invalid value '12x' for --window"},
      {{"--eps=0,2"}, "invalid value '0,2' for --eps"},
      {{"--offset="}, "invalid value '' for --offset"},
      {{"--eps"}, "invalid value 'true' for --eps"},  // bare numeric flag
      {{"--strict=ture"}, "invalid value 'ture' for --strict"},  // booleans too
      {{"--strict=2"}, "invalid value '2' for --strict"},
  };
  for (const auto& c : cases) {
    std::uint64_t steps = 1000;
    std::size_t window = 0;
    double eps = 0.1;
    std::int64_t offset = 0;
    bool strict = false;
    Options opts("t", "test");
    opts.add_uint("steps", &steps, "s");
    opts.add_size("window", &window, "w");
    opts.add_double("eps", &eps, "e");
    opts.add_int("offset", &offset, "o");
    opts.add_bool("strict", &strict, "st");

    Argv a(c.args);
    std::ostringstream err;
    EXPECT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kError)
        << c.message;
    EXPECT_NE(err.str().find(c.message), std::string::npos) << err.str();
  }
}

TEST(Options, HelpListsEveryDeclaredFlagWithDefaults) {
  std::string proto = "combined";
  OutputOptions out;
  Options opts("t", "test");
  opts.add_string("protocol", &proto, "the protocol");
  opts.note("faults", "fault preset", "none");
  add_output_options(opts, out);

  Argv a({"--help"});
  std::ostringstream text;
  EXPECT_EQ(opts.parse(a.argc(), a.argv(), text), Options::ParseResult::kHelp);
  const std::string help = text.str();
  EXPECT_NE(help.find("--protocol"), std::string::npos);
  EXPECT_NE(help.find("[combined]"), std::string::npos);
  EXPECT_NE(help.find("--faults"), std::string::npos);
  EXPECT_NE(help.find("--telemetry[=PATH]"), std::string::npos);
  EXPECT_NE(help.find("--json"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Options, OptionalPathSemantics) {
  OutputOptions out;
  Options opts("t", "test");
  add_output_options(opts, out);

  {  // absent -> ""
    Argv a({});
    std::ostringstream err;
    ASSERT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
    EXPECT_EQ(out.telemetry_json, "");
  }
  {  // bare flag -> default path
    Argv a({"--telemetry"});
    std::ostringstream err;
    ASSERT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
    EXPECT_EQ(out.telemetry_json, "telemetry.json");
  }
  {  // explicit value -> that value
    Argv a({"--telemetry=custom.json", "--telemetry-prom", "m.prom"});
    std::ostringstream err;
    ASSERT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
    EXPECT_EQ(out.telemetry_json, "custom.json");
    EXPECT_EQ(out.telemetry_prom, "m.prom");
  }
}

TEST(Options, StreamGroupBindsTheFullSpecAndDerivesSigma) {
  StreamSpec spec;
  spec.kind = "zipf_bursty";
  spec.n = 64;
  spec.k = 4;
  Options opts("t", "test");
  add_stream_options(opts, spec);

  Argv a({"--stream=oscillating", "--n", "32", "--churn", "0.5"});
  std::ostringstream err;
  ASSERT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
  finalize_stream_options(opts, spec, 4);
  EXPECT_EQ(spec.kind, "oscillating");
  EXPECT_EQ(spec.n, 32u);
  EXPECT_EQ(spec.k, 4u);  // preset default untouched
  EXPECT_DOUBLE_EQ(spec.churn, 0.5);
  EXPECT_EQ(spec.sigma, 8u);  // n/4 from the post-parse default

  // An explicit --sigma wins over the derived default.
  Options opts2("t", "test");
  add_stream_options(opts2, spec);
  Argv b({"--sigma", "5"});
  ASSERT_EQ(opts2.parse(b.argc(), b.argv(), err), Options::ParseResult::kOk);
  finalize_stream_options(opts2, spec, 4);
  EXPECT_EQ(spec.sigma, 5u);
}

TEST(Options, FaultGroupFlagsAreKnownAndReachTheFaultParser) {
  Options opts("t", "test");
  add_fault_options(opts);

  Argv a({"--faults=lossy", "--loss", "0.5", "--fault-seed", "9"});
  std::ostringstream err;
  ASSERT_EQ(opts.parse(a.argc(), a.argv(), err), Options::ParseResult::kOk);
  const FaultConfig cfg = fault_config_from_flags(opts.flags(), 100);
  EXPECT_DOUBLE_EQ(cfg.loss, 0.5);
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(Options, ListPrintsTheRegistries) {
  Options opts("t", "test");
  Argv a({"--list"});
  std::ostringstream text;
  EXPECT_EQ(opts.parse(a.argc(), a.argv(), text), Options::ParseResult::kHelp);
  EXPECT_NE(text.str().find("protocols:"), std::string::npos);
  EXPECT_NE(text.str().find("combined"), std::string::npos);
  EXPECT_NE(text.str().find("random_walk"), std::string::npos);
}

TEST(Options, PrintTableHonorsTheSharedOutputToggles) {
  Table t("title");
  t.header({"a", "b"});
  t.add_row({"1", "2"});

  OutputOptions out;
  std::ostringstream ascii;
  print_table(t, out, ascii);
  EXPECT_NE(ascii.str().find("== title =="), std::string::npos);

  out.json = true;
  std::ostringstream json;
  print_table(t, out, json);
  EXPECT_NE(json.str().find("\"title\": \"title\""), std::string::npos);
  EXPECT_NE(json.str().find("{\"a\": \"1\", \"b\": \"2\"}"), std::string::npos);

  out.json = false;
  out.markdown = true;
  out.csv = true;
  std::ostringstream md;
  print_table(t, out, md);
  EXPECT_NE(md.str().find("### title"), std::string::npos);
  EXPECT_NE(md.str().find("a,b\n1,2\n"), std::string::npos);
}

}  // namespace
}  // namespace topkmon
