#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace topkmon {
namespace {

Flags make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  auto f = make({"prog", "--n=42", "--eps=0.25", "--name=hello"});
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("eps", 0.0), 0.25);
  EXPECT_EQ(f.get_string("name", ""), "hello");
}

TEST(Flags, SpaceSyntax) {
  auto f = make({"prog", "--steps", "1000", "--kind", "uniform"});
  EXPECT_EQ(f.get_uint("steps", 0), 1000u);
  EXPECT_EQ(f.get_string("kind", ""), "uniform");
}

TEST(Flags, BooleanFlags) {
  auto f = make({"prog", "--verbose", "--strict=false"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("strict", true));
  EXPECT_TRUE(f.get_bool("absent", true));
  EXPECT_FALSE(f.get_bool("absent", false));
}

TEST(Flags, Positional) {
  auto f = make({"prog", "input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "output.csv");
}

TEST(Flags, DefaultsWhenMissing) {
  auto f = make({"prog"});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, ProgramName) {
  auto f = make({"./bench_e1", "--n=1"});
  EXPECT_EQ(f.program(), "./bench_e1");
}

TEST(Flags, NumericGettersParseTheWholeValue) {
  auto f = make({"prog", "--a=-12", "--b=+7", "--c=1e3", "--d=0.5"});
  EXPECT_EQ(f.get_int("a", 0), -12);
  EXPECT_EQ(f.get_uint("b", 0), 7u);
  EXPECT_DOUBLE_EQ(f.get_double("c", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(f.get_double("d", 0.0), 0.5);
}

TEST(Flags, MalformedNumbersThrowNamingFlagAndValue) {
  auto f = make({"prog", "--steps=abc", "--n=64x", "--eps=0,2", "--k=-1",
                 "--seed=99999999999999999999", "--empty=", "--bare"});
  const auto message = [](auto&& get) -> std::string {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message([&] { f.get_uint("steps", 1); }),
            "invalid value 'abc' for --steps (expected an unsigned integer)");
  EXPECT_EQ(message([&] { f.get_int("n", 1); }),
            "invalid value '64x' for --n (expected an integer)");
  EXPECT_EQ(message([&] { f.get_double("eps", 0.1); }),
            "invalid value '0,2' for --eps (expected a number)");
  EXPECT_EQ(message([&] { f.get_uint("k", 1); }),
            "invalid value '-1' for --k (expected an unsigned integer)");
  EXPECT_EQ(message([&] { f.get_uint("seed", 1); }),
            "invalid value '99999999999999999999' for --seed (expected an "
            "unsigned integer)");
  EXPECT_EQ(message([&] { f.get_int("empty", 1); }),
            "invalid value '' for --empty (expected an integer)");
  EXPECT_EQ(message([&] { f.get_double("bare", 1.0); }),
            "invalid value 'true' for --bare (expected a number)");
  // Absent flags still fall back to the default without parsing anything.
  EXPECT_EQ(f.get_uint("absent", 5), 5u);
}

TEST(Flags, BoolGetterRejectsMalformedValue) {
  auto f = make({"prog", "--a=yes", "--b=no", "--c=1", "--d=0", "--strict=ture",
                 "--csv=2", "--empty="});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  const auto message = [&](const std::string& name) -> std::string {
    try {
      f.get_bool(name, false);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message("strict"),
            "invalid value 'ture' for --strict (expected true/false/1/0/yes/no)");
  EXPECT_EQ(message("csv"),
            "invalid value '2' for --csv (expected true/false/1/0/yes/no)");
  EXPECT_EQ(message("empty"),
            "invalid value '' for --empty (expected true/false/1/0/yes/no)");
}

}  // namespace
}  // namespace topkmon
