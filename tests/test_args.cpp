#include "util/args.hpp"

#include <gtest/gtest.h>

namespace ffp {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.flag("k", "32", "number of parts")
      .flag("name", "default", "a string")
      .flag("ratio", "0.5", "a number")
      .toggle("verbose", "noise level");
  return p;
}

void parse(ArgParser& p, std::initializer_list<const char*> argv) {
  std::vector<const char*> args = {"prog"};
  args.insert(args.end(), argv);
  p.parse(static_cast<int>(args.size()), args.data());
}

TEST(Args, DefaultsApplyWhenUnset) {
  auto p = make_parser();
  parse(p, {});
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("k"), 32);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.was_set("k"));
}

TEST(Args, ValuesOverrideDefaults) {
  auto p = make_parser();
  parse(p, {"--k", "8", "--name", "atc", "--ratio", "1.25", "--verbose"});
  EXPECT_EQ(p.get_int("k"), 8);
  EXPECT_EQ(p.get("name"), "atc");
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 1.25);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.was_set("k"));
}

TEST(Args, PositionalArgumentsCollected) {
  auto p = make_parser();
  parse(p, {"input.graph", "--k", "4", "output.part"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.graph");
  EXPECT_EQ(p.positional()[1], "output.part");
}

TEST(Args, UnknownFlagThrows) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"--bogus", "1"}), Error);
}

TEST(Args, MissingValueThrows) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"--k"}), Error);
}

TEST(Args, BadTypeThrowsOnAccess) {
  auto p = make_parser();
  parse(p, {"--k", "eight"});
  EXPECT_THROW(p.get_int("k"), Error);
}

TEST(Args, UnregisteredAccessThrows) {
  auto p = make_parser();
  parse(p, {});
  EXPECT_THROW(p.get("nonexistent"), Error);
}

TEST(Args, DuplicateRegistrationThrows) {
  ArgParser p;
  p.flag("x", "1", "first");
  EXPECT_THROW(p.flag("x", "2", "again"), Error);
}

TEST(Args, PortListsParseAndRejectNonPorts) {
  ArgParser p;
  p.flag("shards", "", "ports").flag("peers", "", "ports");
  parse(p, {"--shards", " 17917, 17918,,", "--peers", "17917,70000"});
  EXPECT_EQ(p.get_ports("shards"), (std::vector<int>{17917, 17918}));
  EXPECT_THROW(p.get_ports("peers"), Error);
}

TEST(Args, UsageMentionsFlagsAndHelp) {
  auto p = make_parser();
  const auto usage = p.usage();
  EXPECT_NE(usage.find("--k"), std::string::npos);
  EXPECT_NE(usage.find("number of parts"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace ffp
