#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "src/trace/generator.h"

namespace ssmc {
namespace {

// Expects `text` to fail to parse with INVALID_ARGUMENT naming line 2.
void ExpectRejectedOnLineTwo(const std::string& text) {
  const Result<Trace> parsed = Trace::FromText(text);
  ASSERT_FALSE(parsed.ok()) << text;
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << text;
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().message();
}

TEST(TraceTest, OpNamesRoundTripThroughText) {
  Trace trace;
  trace.Add({100, TraceOp::kMkdir, "/d", 0, 0, ""});
  trace.Add({200, TraceOp::kCreate, "/d/f", 0, 0, ""});
  trace.Add({300, TraceOp::kWrite, "/d/f", 10, 500, ""});
  trace.Add({400, TraceOp::kRead, "/d/f", 0, 510, ""});
  trace.Add({500, TraceOp::kStat, "/d/f", 0, 0, ""});
  trace.Add({600, TraceOp::kTruncate, "/d/f", 0, 100, ""});
  trace.Add({700, TraceOp::kRename, "/d/f", 0, 0, "/d/g"});
  trace.Add({800, TraceOp::kUnlink, "/d/g", 0, 0, ""});

  Result<Trace> parsed = Trace::FromText(trace.ToText());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed.value().records()[i], trace.records()[i]) << "record " << i;
  }
}

TEST(TraceTest, TotalsComputed) {
  Trace trace;
  trace.Add({0, TraceOp::kWrite, "/f", 0, 100, ""});
  trace.Add({10, TraceOp::kWrite, "/f", 0, 200, ""});
  trace.Add({20, TraceOp::kRead, "/f", 0, 50, ""});
  EXPECT_EQ(trace.TotalBytesWritten(), 300u);
  EXPECT_EQ(trace.TotalBytesRead(), 50u);
  EXPECT_EQ(trace.DurationNs(), 20);
}

TEST(TraceTest, EmptyTrace) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.DurationNs(), 0);
  EXPECT_EQ(trace.ToText(), "");
}

TEST(TraceTest, ParserSkipsCommentsAndBlankLines) {
  Result<Trace> parsed = Trace::FromText(
      "# a comment\n"
      "\n"
      "5 create /f 0 0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().records()[0].op, TraceOp::kCreate);
}

TEST(TraceTest, PrefixCutsByTime) {
  Trace trace;
  trace.Add({0, TraceOp::kCreate, "/a", 0, 0, ""});
  trace.Add({100, TraceOp::kWrite, "/a", 0, 10, ""});
  trace.Add({200, TraceOp::kUnlink, "/a", 0, 0, ""});
  const Trace cut = trace.Prefix(100);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.records()[1].op, TraceOp::kWrite);
  EXPECT_TRUE(trace.Prefix(-1).empty());
  EXPECT_EQ(trace.Prefix(10000).size(), 3u);
}

TEST(TraceTest, WithPathPrefixRewritesAllPaths) {
  Trace trace;
  trace.Add({0, TraceOp::kMkdir, "/d", 0, 0, ""});
  trace.Add({1, TraceOp::kRename, "/d/a", 0, 0, "/d/b"});
  const Trace remapped = trace.WithPathPrefix("/s1");
  EXPECT_EQ(remapped.records()[0].path, "/s1/d");
  EXPECT_EQ(remapped.records()[1].path, "/s1/d/a");
  EXPECT_EQ(remapped.records()[1].path2, "/s1/d/b");
  // The original is untouched.
  EXPECT_EQ(trace.records()[0].path, "/d");
}

TEST(TraceTest, ParserRejectsGarbage) {
  EXPECT_FALSE(Trace::FromText("not a trace line\n").ok());
  EXPECT_FALSE(Trace::FromText("5 explode /f 0 0\n").ok());
}

TEST(TraceTest, TenantTagRoundTripsThroughText) {
  Trace trace;
  trace.Add({100, TraceOp::kCreate, "/f", 0, 0, ""});
  trace.Add({200, TraceOp::kWrite, "/f", 0, 64, ""});
  trace.Add({300, TraceOp::kRename, "/f", 0, 0, "/g"});  // Optional path2.
  const Trace tagged = Trace(trace).WithTenant(5);
  ASSERT_EQ(tagged.size(), 3u);
  for (const TraceRecord& r : tagged.records()) {
    EXPECT_EQ(r.tenant, 5);
  }
  // The original is untouched.
  EXPECT_EQ(trace.records()[0].tenant, kDefaultTenant);

  Result<Trace> parsed = Trace::FromText(tagged.ToText());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), tagged.size());
  for (size_t i = 0; i < tagged.size(); ++i) {
    EXPECT_EQ(parsed.value().records()[i], tagged.records()[i])
        << "record " << i;
  }
}

TEST(TraceTest, DefaultTenantSerializesWithoutTenantToken) {
  // Single-tenant traces must round-trip through the exact pre-tenancy text
  // format: no "t=" token on output, and pre-tenancy lines parse to the
  // default tenant.
  Trace trace;
  trace.Add({100, TraceOp::kWrite, "/f", 0, 64, ""});
  EXPECT_EQ(trace.ToText().find("t="), std::string::npos);

  Result<Trace> parsed = Trace::FromText("100 write /f 0 64\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().records()[0].tenant, kDefaultTenant);
}

TEST(TraceTest, ParserRejectsMalformedTenantTags) {
  // No digits, trailing garbage, and ids past TenantId's range used to parse
  // silently (as tenant 0, or truncated).
  for (const std::string tag : {"t=", "t=abc", "t=3x", "t=-1", "t=65536"}) {
    ExpectRejectedOnLineTwo("100 create /f 0 0\n200 write /f 0 64 " + tag +
                            "\n");
  }
}

TEST(TraceTest, ParserRejectsExtraTrailingTokens) {
  // A third trailing token used to overwrite the rename destination.
  ExpectRejectedOnLineTwo("100 create /f 0 0\n300 rename /f 0 0 /g /h\n");
  ExpectRejectedOnLineTwo("100 create /f 0 0\n300 rename /f 0 0 /g t=1 /h\n");
  ExpectRejectedOnLineTwo("100 create /f 0 0\n200 write /f 0 64 t=1 t=2\n");
}

TEST(TraceTest, ParserAcceptsTrailingTokensInEitherOrder) {
  Result<Trace> parsed =
      Trace::FromText("300 rename /f 0 0 t=65535 /g\n400 stat /g 0 0 t=0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().records()[0].path2, "/g");
  EXPECT_EQ(parsed.value().records()[0].tenant, 65535);
  EXPECT_EQ(parsed.value().records()[1].tenant, kDefaultTenant);
}

TEST(TraceTest, GeneratedTracesRoundTripThroughText) {
  for (const TenantId tenant : {kDefaultTenant, TenantId{3}}) {
    WorkloadOptions options = WriteHotWorkload();
    options.duration = kMinute;
    const Trace trace =
        WorkloadGenerator(options).Generate().WithTenant(tenant);
    Result<Trace> parsed = Trace::FromText(trace.ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().records(), trace.records());
  }
}

}  // namespace
}  // namespace ssmc
