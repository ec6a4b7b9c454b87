#include "common/flags.h"

#include <gtest/gtest.h>

namespace pafeat {
namespace {

// Builds an argv array from string literals (argv[0] is the program name).
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesEqualsSyntax) {
  FlagSet flags;
  int iterations = 10;
  double ratio = 0.5;
  flags.AddInt("iterations", &iterations, "");
  flags.AddDouble("ratio", &ratio, "");
  ArgvBuilder args({"--iterations=25", "--ratio=0.75"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(iterations, 25);
  EXPECT_DOUBLE_EQ(ratio, 0.75);
}

TEST(FlagsTest, ParsesSpaceSyntax) {
  FlagSet flags;
  std::string name = "x";
  flags.AddString("name", &name, "");
  ArgvBuilder args({"--name", "hello"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(name, "hello");
}

TEST(FlagsTest, BareBoolSetsTrue) {
  FlagSet flags;
  bool verbose = false;
  flags.AddBool("verbose", &verbose, "");
  ArgvBuilder args({"--verbose"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(verbose);
}

TEST(FlagsTest, BoolExplicitValues) {
  FlagSet flags;
  bool a = false;
  bool b = true;
  flags.AddBool("a", &a, "");
  flags.AddBool("b", &b, "");
  ArgvBuilder args({"--a=true", "--b=false"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet flags;
  int x = 0;
  flags.AddInt("x", &x, "");
  ArgvBuilder args({"--y=1"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
}

// A trailing unknown flag is reported as unknown, like --y=1 or --y 1, not
// as a flag missing its value.
TEST(FlagsTest, TrailingUnknownFlagIsReportedAsUnknown) {
  FlagSet flags;
  bool demo = false;
  flags.AddBool("demo", &demo, "");
  ArgvBuilder args({"--demo", "--bogus"});
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown flag --bogus"), std::string::npos) << err;
  EXPECT_EQ(err.find("missing a value"), std::string::npos) << err;
}

TEST(FlagsTest, MalformedIntFails) {
  FlagSet flags;
  int x = 0;
  flags.AddInt("x", &x, "");
  ArgvBuilder args({"--x=abc"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
}

TEST(FlagsTest, OutOfRangeIntFails) {
  FlagSet flags;
  int x = 3;
  flags.AddInt("x", &x, "");
  ArgvBuilder args({"--x=4294967297"});  // 2^32 + 1 would wrap to 1
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(x, 3);
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet flags;
  int x = 0;
  flags.AddInt("x", &x, "");
  ArgvBuilder args({"--x"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
}

TEST(FlagsTest, PositionalArgumentFails) {
  FlagSet flags;
  ArgvBuilder args({"stray"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
}

TEST(FlagsTest, HelpReturnsFalseAndListsFlags) {
  FlagSet flags;
  int iterations = 3;
  flags.AddInt("iterations", &iterations, "how many");
  ArgvBuilder args({"--help"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_NE(flags.Usage().find("iterations"), std::string::npos);
  EXPECT_NE(flags.Usage().find("how many"), std::string::npos);
}

TEST(FlagsTest, DefaultsPreservedWhenAbsent) {
  FlagSet flags;
  int x = 5;
  double y = 1.5;
  flags.AddInt("x", &x, "");
  flags.AddDouble("y", &y, "");
  ArgvBuilder args({"--x=9"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(x, 9);
  EXPECT_DOUBLE_EQ(y, 1.5);
}

}  // namespace
}  // namespace pafeat
