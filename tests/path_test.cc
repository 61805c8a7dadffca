#include "src/fs/path.h"

#include <gtest/gtest.h>

namespace ssmc {
namespace {

TEST(PathTest, ValidPaths) {
  EXPECT_TRUE(IsValidPath("/"));
  EXPECT_TRUE(IsValidPath("/a"));
  EXPECT_TRUE(IsValidPath("/a/b/c"));
  EXPECT_TRUE(IsValidPath("/file.txt"));
}

TEST(PathTest, InvalidPaths) {
  EXPECT_FALSE(IsValidPath(""));
  EXPECT_FALSE(IsValidPath("relative"));
  EXPECT_FALSE(IsValidPath("/a/"));
  EXPECT_FALSE(IsValidPath("//"));
  EXPECT_FALSE(IsValidPath("/a//b"));
  EXPECT_FALSE(IsValidPath("/a/./b"));
  EXPECT_FALSE(IsValidPath("/a/../b"));
}

TEST(PathTest, SplitPath) {
  EXPECT_TRUE(SplitPath("/").empty());
  EXPECT_EQ(SplitPath("/a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitPath("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PathTest, ParentPath) {
  EXPECT_EQ(ParentPath("/"), "/");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
}

TEST(PathTest, BaseName) {
  EXPECT_EQ(BaseName("/"), "");
  EXPECT_EQ(BaseName("/a"), "a");
  EXPECT_EQ(BaseName("/a/b/c.txt"), "c.txt");
}

TEST(PathTest, JoinPath) {
  EXPECT_EQ(JoinPath("/", "a"), "/a");
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
}

TEST(PathTest, IsSameOrUnder) {
  EXPECT_TRUE(IsSameOrUnder("/a", "/a"));
  EXPECT_TRUE(IsSameOrUnder("/a/b", "/a"));
  EXPECT_TRUE(IsSameOrUnder("/a/b/c", "/a"));
  EXPECT_FALSE(IsSameOrUnder("/ab", "/a"));
  EXPECT_FALSE(IsSameOrUnder("/a", "/a/b"));
  EXPECT_FALSE(IsSameOrUnder("/b/a", "/a"));
}

TEST(PathTest, JoinThenSplitRoundTrips) {
  const std::string joined = JoinPath(JoinPath("/", "x"), "y");
  EXPECT_EQ(joined, "/x/y");
  EXPECT_TRUE(IsValidPath(joined));
  EXPECT_EQ(ParentPath(joined), "/x");
  EXPECT_EQ(BaseName(joined), "y");
}

}  // namespace
}  // namespace ssmc
