#include "src/fs/path.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

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

// Collects the components PathComponents yields.
std::vector<std::string> Components(std::string_view path) {
  std::vector<std::string> out;
  for (const std::string_view c : PathComponents(path)) {
    out.emplace_back(c);
  }
  return out;
}

TEST(PathTest, PathComponents) {
  EXPECT_TRUE(Components("/").empty());
  EXPECT_EQ(Components("/a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(Components("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PathTest, ParentPathView) {
  EXPECT_EQ(ParentPathView("/"), "/");
  EXPECT_EQ(ParentPathView("/a"), "/");
  EXPECT_EQ(ParentPathView("/a/b"), "/a");
  EXPECT_EQ(ParentPathView("/a/b/c"), "/a/b");
}

TEST(PathTest, BaseNameView) {
  EXPECT_EQ(BaseNameView("/"), "");
  EXPECT_EQ(BaseNameView("/a"), "a");
  EXPECT_EQ(BaseNameView("/a/b/c.txt"), "c.txt");
}

TEST(PathTest, IsSameOrUnder) {
  EXPECT_TRUE(IsSameOrUnder("/a", "/a"));
  EXPECT_TRUE(IsSameOrUnder("/a/b", "/a"));
  EXPECT_TRUE(IsSameOrUnder("/a/b/c", "/a"));
  EXPECT_FALSE(IsSameOrUnder("/ab", "/a"));
  EXPECT_FALSE(IsSameOrUnder("/a", "/a/b"));
  EXPECT_FALSE(IsSameOrUnder("/b/a", "/a"));
}

}  // namespace
}  // namespace ssmc
