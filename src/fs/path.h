// Path handling shared by the file systems. Paths are absolute,
// '/'-separated, with no "." / ".." resolution (the simulator's workloads
// only generate canonical paths; anything else is rejected as invalid).

#ifndef SSMC_SRC_FS_PATH_H_
#define SSMC_SRC_FS_PATH_H_

#include <cstddef>
#include <string_view>

namespace ssmc {

// True for a canonical absolute path: starts with '/', no empty, "." or ".."
// components, no trailing slash (except the root itself).
bool IsValidPath(std::string_view path);

// True when `path` is `dir` itself or lies under `dir + "/"` (a rename of
// `dir` to such a path would make a directory its own ancestor).
bool IsSameOrUnder(std::string_view path, std::string_view dir);

// Views into `path`, valid as long as its backing storage.
// Parent of "/a/b/c" is "/a/b"; parent of "/a" is "/"; parent of "/" is "/".
std::string_view ParentPathView(std::string_view path);
// Final component; basename of "/" is "".
std::string_view BaseNameView(std::string_view path);

// Zero-allocation split: a forward range over the components of a canonical
// path, each a view into it ("/a/b/c" -> "a", "b", "c"; "/" -> empty range).
// Pre: IsValidPath(path).
class PathComponents {
 public:
  class iterator {
   public:
    std::string_view operator*() const {
      return path_.substr(start_, end_ - start_);
    }
    iterator& operator++() {
      start_ = end_ + 1;
      Advance();
      return *this;
    }
    bool operator==(const iterator& o) const { return start_ == o.start_; }
    bool operator!=(const iterator& o) const { return start_ != o.start_; }

   private:
    friend class PathComponents;
    iterator(std::string_view path, size_t start)
        : path_(path), start_(start) {
      Advance();
    }
    void Advance() {
      if (start_ >= path_.size()) {
        start_ = path_.size();
        end_ = start_;
        return;
      }
      end_ = path_.find('/', start_);
      if (end_ == std::string_view::npos) {
        end_ = path_.size();
      }
    }
    std::string_view path_;
    size_t start_;
    size_t end_ = 0;
  };

  explicit PathComponents(std::string_view path) : path_(path) {}
  iterator begin() const { return iterator(path_, 1); }
  iterator end() const { return iterator(path_, path_.size()); }

 private:
  std::string_view path_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_PATH_H_
