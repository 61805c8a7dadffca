// FirstTouchTable: elements exist only once touched, untouched ones are never
// constructed, each touched one is destroyed exactly once, and NextTouched
// walks the touched indices in order across word and summary boundaries.

#include "src/support/first_touch_table.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/support/rng.h"

namespace ssmc {
namespace {

// Counts constructions and destructions per index, and carries a value the
// test can check was value-initialized.
struct Counted {
  static std::vector<int>* constructed;
  static std::vector<int>* destroyed;
  Counted() : index(next_index) { ++(*constructed)[index]; }
  ~Counted() { ++(*destroyed)[index]; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;

  static size_t next_index;  // Set before each Touch: the slot it builds.
  size_t index;
  std::string payload;  // Non-trivial: the destructor must run.
  int value = 7;
};
std::vector<int>* Counted::constructed = nullptr;
std::vector<int>* Counted::destroyed = nullptr;
size_t Counted::next_index = 0;

class FirstTouchTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    constructed_.assign(kSize, 0);
    destroyed_.assign(kSize, 0);
    Counted::constructed = &constructed_;
    Counted::destroyed = &destroyed_;
  }
  void TearDown() override {
    Counted::constructed = nullptr;
    Counted::destroyed = nullptr;
  }

  Counted& Touch(FirstTouchTable<Counted>& table, size_t i) {
    Counted::next_index = i;
    return table.Touch(i);
  }

  // Spans several bitmap words and more than one summary word.
  static constexpr size_t kSize = 64 * 64 + 200;
  std::vector<int> constructed_;
  std::vector<int> destroyed_;
};

TEST_F(FirstTouchTableTest, UntouchedElementsAreNeverConstructed) {
  {
    FirstTouchTable<Counted> table(kSize);
    EXPECT_EQ(table.size(), kSize);
    for (size_t i = 0; i < kSize; ++i) {
      EXPECT_FALSE(table.contains(i));
      EXPECT_EQ(table.Find(i), nullptr);
    }
    EXPECT_EQ(table.NextTouched(0), kSize);
  }
  for (size_t i = 0; i < kSize; ++i) {
    EXPECT_EQ(constructed_[i], 0) << i;
    EXPECT_EQ(destroyed_[i], 0) << i;
  }
}

TEST_F(FirstTouchTableTest, EachTouchedElementIsBuiltAndDestroyedOnce) {
  const std::set<size_t> touched = {0,    1,    63,   64,   127,  4095,
                                    4096, 4097, 4160, kSize - 1};
  {
    FirstTouchTable<Counted> table(kSize);
    for (size_t i : touched) {
      Counted& c = Touch(table, i);
      EXPECT_EQ(c.value, 7);  // Value-initialized.
      c.value = static_cast<int>(i);
      // A second touch returns the same element without rebuilding it.
      EXPECT_EQ(&Touch(table, i), &c);
      EXPECT_EQ(table.Find(i), &c);
      EXPECT_EQ(&table[i], &c);
    }
    for (size_t i = 0; i < kSize; ++i) {
      EXPECT_EQ(table.contains(i), touched.contains(i)) << i;
    }
    for (size_t i : touched) {
      EXPECT_EQ(table[i].value, static_cast<int>(i));
    }
    for (size_t i = 0; i < kSize; ++i) {
      EXPECT_EQ(constructed_[i], touched.contains(i) ? 1 : 0) << i;
      EXPECT_EQ(destroyed_[i], 0) << i;
    }
  }
  for (size_t i = 0; i < kSize; ++i) {
    EXPECT_EQ(destroyed_[i], touched.contains(i) ? 1 : 0) << i;
  }
}

TEST_F(FirstTouchTableTest, NextTouchedWalksTouchedIndicesInOrder) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    std::fill(constructed_.begin(), constructed_.end(), 0);
    std::fill(destroyed_.begin(), destroyed_.end(), 0);
    std::set<size_t> touched;
    {
      FirstTouchTable<Counted> table(kSize);
      const int n = static_cast<int>(rng.NextBelow(40));
      for (int k = 0; k < n; ++k) {
        const size_t i = rng.NextBelow(kSize);
        touched.insert(i);
        Touch(table, i);
      }
      // From every start index, NextTouched is the first touched index at
      // or after it.
      for (size_t from = 0; from <= kSize; ++from) {
        auto it = touched.lower_bound(from);
        const size_t want = it == touched.end() ? kSize : *it;
        ASSERT_EQ(table.NextTouched(from), want) << "from " << from;
      }
    }
    for (size_t i = 0; i < kSize; ++i) {
      ASSERT_EQ(destroyed_[i], touched.contains(i) ? 1 : 0) << i;
    }
  }
}

TEST(FirstTouchTablePlainTest, EmptyAndTinyTables) {
  FirstTouchTable<int> empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.NextTouched(0), 0u);

  FirstTouchTable<int> one(1);
  EXPECT_EQ(one.NextTouched(0), 1u);
  EXPECT_EQ(one.Touch(0), 0);  // Value-initialized.
  one.Touch(0) = 5;
  EXPECT_EQ(one[0], 5);
  EXPECT_EQ(one.NextTouched(0), 0u);
  EXPECT_EQ(one.NextTouched(1), 1u);
}

}  // namespace
}  // namespace ssmc
