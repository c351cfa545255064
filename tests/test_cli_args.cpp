// Flag-parser tests for the c2b CLI: value/boolean/`=` forms, the
// optional-value `--progress[=N]` shape, numeric parse errors that name the
// offending flag, and unknown-flag rejection via finish().

#include "cli_args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace c2b::cli {
namespace {

/// argv helper: owns the strings, hands out mutable char* like main() gets.
class Argv {
 public:
  explicit Argv(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {
    for (std::string& token : tokens_) pointers_.push_back(token.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> pointers_;
};

TEST(CliArgsTest, ParsesValueAndEqualsForms) {
  Argv argv({"c2b", "dse", "--workload", "stencil", "--threads=4", "--area", "128"});
  Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
  EXPECT_EQ(args.get("threads", 0ll), 4);
  EXPECT_DOUBLE_EQ(args.get("area", 0.0), 128.0);
  EXPECT_EQ(args.get("missing", std::string("fallback")), "fallback");
  args.finish();  // everything queried -> no throw
}

TEST(CliArgsTest, BooleanFlagTakesNoValue) {
  // `--progress` is registered boolean, so it must NOT eat `--workload`.
  Argv argv({"c2b", "dse", "--progress", "--workload", "stencil"});
  Args args(argv.argc(), argv.argv(), 2, {"progress"});
  EXPECT_TRUE(args.has("progress"));
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
}

TEST(CliArgsTest, GetOptCoversAllThreeShapes) {
  {
    Argv argv({"c2b", "dse"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_FALSE(args.get_opt("progress", 500).has_value());
  }
  {
    Argv argv({"c2b", "dse", "--progress"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_EQ(args.get_opt("progress", 500), 500);  // bare form -> default
  }
  {
    Argv argv({"c2b", "dse", "--progress=250"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_EQ(args.get_opt("progress", 500), 250);
  }
}

TEST(CliArgsTest, NumericErrorsNameTheFlag) {
  Argv argv({"c2b", "dse", "--threads=lots", "--area=wide"});
  Args args(argv.argc(), argv.argv(), 2);
  try {
    args.get("threads", 0ll);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("lots"), std::string::npos);
  }
  try {
    args.get("area", 0.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--area"), std::string::npos);
  }
  try {
    args.get_opt("threads", 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos);
  }
}

TEST(CliArgsTest, FinishThrowsListingUnknownFlags) {
  Argv argv({"c2b", "dse", "--workload", "stencil", "--bogus=1", "--typo", "x"});
  Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
  try {
    args.finish();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown flag"), std::string::npos);
    EXPECT_NE(what.find("--bogus"), std::string::npos);
    EXPECT_NE(what.find("--typo"), std::string::npos);
  }
}

TEST(CliArgsTest, GetOptNumericErrorNamesTheFlag) {
  Argv argv({"c2b", "dse", "--progress=soon"});
  Args args(argv.argc(), argv.argv(), 2, {"progress"});
  try {
    args.get_opt("progress", 500);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--progress"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("soon"), std::string::npos);
  }
}

TEST(CliArgsTest, UnqueriedBatchFlagsAreUnknownToOtherCommands) {
  // Commands that never query the sweep flags reject them via finish(),
  // naming both — the `c2b model --pareto` typo fails loudly.
  Argv argv({"c2b", "model", "--pareto", "--large-axes"});
  Args args(argv.argc(), argv.argv(), 2, {"pareto", "large-axes"});
  try {
    args.finish();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown flag"), std::string::npos);
    EXPECT_NE(what.find("--pareto"), std::string::npos);
    EXPECT_NE(what.find("--large-axes"), std::string::npos);
  }
}

TEST(CliArgsTest, BudgetFlagsParseValueAndEqualsForms) {
  // The constraint budgets on `dse`/`aps` are plain double flags; both
  // spellings must parse, and absence leaves the caller's default.
  {
    Argv argv({"c2b", "dse", "--power-budget", "4.5", "--bw-budget=120",
               "--noc-budget", "80"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_DOUBLE_EQ(args.get("power-budget", 0.0), 4.5);
    EXPECT_DOUBLE_EQ(args.get("bw-budget", 0.0), 120.0);
    EXPECT_DOUBLE_EQ(args.get("noc-budget", 0.0), 80.0);
    args.finish();
  }
  {
    Argv argv({"c2b", "dse"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_FALSE(args.has("power-budget"));
    EXPECT_DOUBLE_EQ(args.get("power-budget", 7.0), 7.0);
  }
}

TEST(CliArgsTest, BudgetFlagNumericErrorsNameTheFlag) {
  // Non-numeric budgets must throw naming the offending flag and value —
  // main() turns that into a clear message and exit 1 (the non-positive
  // case is validated by the command itself with exit 2).
  Argv argv({"c2b", "dse", "--power-budget=cheap", "--bw-budget", "plenty",
             "--noc-budget=wide"});
  Args args(argv.argc(), argv.argv(), 2);
  for (const char* flag : {"power-budget", "bw-budget", "noc-budget"}) {
    try {
      args.get(flag, 0.0);
      FAIL() << "expected invalid_argument for --" << flag;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + flag),
                std::string::npos);
    }
  }
}

TEST(CliArgsTest, ParetoIsBooleanAndDoesNotEatTheNextFlag) {
  Argv argv({"c2b", "dse", "--pareto", "--power-budget", "4.0"});
  Args args(argv.argc(), argv.argv(), 2, {"pareto"});
  EXPECT_TRUE(args.has("pareto"));
  EXPECT_DOUBLE_EQ(args.get("power-budget", 0.0), 4.0);
  args.mark_used("pareto");
  args.finish();
}

TEST(CliArgsTest, RejectsNonFlagTokens) {
  Argv argv({"c2b", "dse", "stencil"});
  EXPECT_THROW(Args(argv.argc(), argv.argv(), 2), std::invalid_argument);
}

TEST(CliArgsTest, MissingValueThrows) {
  // A queried valued flag with no value reads as absent, and finish()
  // names it as needing a value.
  Argv argv({"c2b", "dse", "--workload"});
  Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get("workload", std::string("?")), "?");
  try {
    args.finish();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), "flag --workload needs a value");
  }
  // has() is a query too: a valueless `--threads` is missing its value,
  // not unknown.
  Argv bare_threads({"c2b", "dse", "--threads"});
  Args threads(bare_threads.argc(), bare_threads.argv(), 2);
  EXPECT_FALSE(threads.has("threads"));
  EXPECT_THROW(threads.finish(), std::invalid_argument);
}

TEST(CliArgsTest, TrailingUnknownFlagIsUnknownNotMissingAValue) {
  // `c2b dse --no-surrogate` and `c2b aps --large-axes --bogus`: a flag the
  // command never queries is unknown, wherever it sits on the line.
  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{"c2b", "dse", "--workload", "stencil", "--no-surrogate"},
        std::vector<std::string>{"c2b", "aps", "--large-axes", "--bogus"}}) {
    Argv argv(tokens);
    Args args(argv.argc(), argv.argv(), 2, {"large-axes"});
    args.get("workload", std::string("?"));
    args.has("large-axes");
    try {
      args.finish();
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), "unknown flag(s): " + tokens.back());
    }
  }
}

}  // namespace
}  // namespace c2b::cli
