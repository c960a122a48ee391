//===- tests/ParseTests.cpp - checked CLI numeric parsing ---------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// support/Parse.h: every numeric CLI flag and env twin goes through these
// parsers, which reject what atoi/atof would silently accept or wrap.
//
//===----------------------------------------------------------------------===//

#include "support/Parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

using namespace antidote;

TEST(CheckedParseTest, RejectsGarbageIntegers) {
  EXPECT_EQ(parseUnsignedArg("foo"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg(""), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("12x"), std::nullopt);   // atoi: 12
  EXPECT_EQ(parseUnsignedArg("-3"), std::nullopt);    // unsigned cast: wraps
  EXPECT_EQ(parseUnsignedArg(" 5"), std::nullopt);    // atoi: 5
  EXPECT_EQ(parseUnsignedArg("5 "), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("+5"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("0x10"), std::nullopt);
}

TEST(CheckedParseTest, RejectsOutOfRangeIntegers) {
  EXPECT_EQ(parseUnsignedArg("4294967296", UINT32_MAX), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("99999999999999999999"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("4294967295", UINT32_MAX), 4294967295ull);
}

TEST(CheckedParseTest, AcceptsPlainUnsignedIntegers) {
  EXPECT_EQ(parseUnsignedArg("0"), 0ull);
  EXPECT_EQ(parseUnsignedArg("16"), 16ull);
  EXPECT_EQ(parseUnsignedArg("007"), 7ull);
}

TEST(CheckedParseTest, DoubleParsingIsCheckedEndToEnd) {
  EXPECT_EQ(parseDoubleArg("abc"), std::nullopt);
  EXPECT_EQ(parseDoubleArg(""), std::nullopt);
  EXPECT_EQ(parseDoubleArg("1.5s"), std::nullopt); // atof: 1.5
  EXPECT_EQ(parseDoubleArg(" 2.0"), std::nullopt);
  EXPECT_EQ(parseDoubleArg("1e999"), std::nullopt); // overflows to inf
  EXPECT_EQ(parseDoubleArg("nan"), std::nullopt);
  EXPECT_EQ(parseDoubleArg("inf"), std::nullopt);
  ASSERT_TRUE(parseDoubleArg("2.5").has_value());
  EXPECT_DOUBLE_EQ(*parseDoubleArg("2.5"), 2.5);
  ASSERT_TRUE(parseDoubleArg("-1.25").has_value());
  EXPECT_DOUBLE_EQ(*parseDoubleArg("-1.25"), -1.25);
  EXPECT_DOUBLE_EQ(*parseDoubleArg("0"), 0.0);
}

//===----------------------------------------------------------------------===//
// Environment twins
//===----------------------------------------------------------------------===//

namespace {

/// A variable no other test or tool reads, removed again on scope exit.
constexpr const char *TestVar = "ANTIDOTE_PARSE_TESTS_ENV";

struct ScopedEnv {
  explicit ScopedEnv(const char *Value) {
    if (Value)
      setenv(TestVar, Value, /*overwrite=*/1);
    else
      unsetenv(TestVar);
  }
  ~ScopedEnv() { unsetenv(TestVar); }
};

EnvNumberStatus statusOf(const char *Value, uint64_t Max = UINT64_MAX) {
  ScopedEnv Env(Value);
  return readUnsignedEnv(TestVar, Max).Status;
}

} // namespace

TEST(EnvReaderTest, UnsignedAbsentOrEmptyIsUnset) {
  EXPECT_EQ(statusOf(nullptr), EnvNumberStatus::Unset);
  EXPECT_EQ(statusOf(""), EnvNumberStatus::Unset);
}

TEST(EnvReaderTest, UnsignedParsesPlainIntegers) {
  ScopedEnv Env("12");
  EnvNumber Read = readUnsignedEnv(TestVar);
  EXPECT_EQ(Read.Status, EnvNumberStatus::Ok);
  EXPECT_EQ(Read.Value, 12u);
  EXPECT_EQ(readUnsignedEnv(TestVar, /*Max=*/12).Status,
            EnvNumberStatus::Ok);
}

TEST(EnvReaderTest, UnsignedRejectsGarbageAndOutOfRange) {
  EXPECT_EQ(statusOf("12x"), EnvNumberStatus::Malformed);
  EXPECT_EQ(statusOf("-1"), EnvNumberStatus::Malformed);
  EXPECT_EQ(statusOf("13", /*Max=*/12), EnvNumberStatus::Malformed);
  EXPECT_EQ(statusOf("18446744073709551616"), EnvNumberStatus::Malformed);
}

TEST(EnvReaderTest, ReportingPrintsTheSharedMessageOnlyWhenMalformed) {
  {
    ScopedEnv Env("12x");
    testing::internal::CaptureStderr();
    EnvNumber Read = readUnsignedEnvReporting(TestVar, "unbounded");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "error: ANTIDOTE_PARSE_TESTS_ENV needs an unsigned integer "
              "(0 = unbounded), got '12x'\n");
    EXPECT_EQ(Read.Status, EnvNumberStatus::Malformed);
  }
  {
    ScopedEnv Env("7");
    testing::internal::CaptureStderr();
    EnvNumber Read = readUnsignedEnvReporting(TestVar, "unbounded");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(Read.Status, EnvNumberStatus::Ok);
    EXPECT_EQ(Read.Value, 7u);
  }
}

TEST(EnvReaderTest, StringAbsentOrEmptyIsNullopt) {
  {
    ScopedEnv Env(nullptr);
    EXPECT_EQ(readStringEnv(TestVar), std::nullopt);
  }
  {
    ScopedEnv Env("");
    EXPECT_EQ(readStringEnv(TestVar), std::nullopt);
  }
  ScopedEnv Env("store-dir");
  EXPECT_EQ(readStringEnv(TestVar), std::optional<std::string>("store-dir"));
}
