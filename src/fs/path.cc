#include "src/fs/path.h"

namespace ssmc {

bool IsValidPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return false;
  }
  if (path == "/") {
    return true;
  }
  if (path.back() == '/') {
    return false;
  }
  size_t start = 1;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    const std::string_view component = path.substr(start, end - start);
    if (component.empty() || component == "." || component == "..") {
      return false;
    }
    start = end + 1;
  }
  return true;
}

std::string_view ParentPathView(std::string_view path) {
  if (path == "/") {
    return path;
  }
  const size_t slash = path.rfind('/');
  if (slash == 0) {
    return path.substr(0, 1);
  }
  return path.substr(0, slash);
}

std::string_view BaseNameView(std::string_view path) {
  if (path == "/") {
    return {};
  }
  return path.substr(path.rfind('/') + 1);
}

bool IsSameOrUnder(std::string_view path, std::string_view dir) {
  return path.starts_with(dir) &&
         (path.size() == dir.size() || path[dir.size()] == '/');
}

}  // namespace ssmc
