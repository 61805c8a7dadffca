// Abstract file-system interface.
//
// The three file systems in this repository — the paper's MemoryFileSystem,
// the conventional DiskFileSystem baseline and the log-structured
// LogFileSystem — implement this interface so the trace replayer and the
// E3/E6 benches can drive them interchangeably. The
// API is path-based (no descriptors): every call is one simulated operation
// whose cost is whatever the implementation's devices charge to the clock.

#ifndef SSMC_SRC_FS_FILE_SYSTEM_H_
#define SSMC_SRC_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/sim/io_request.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

struct FileInfo {
  uint64_t size = 0;
  bool is_directory = false;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual std::string name() const = 0;

  // The tenant on whose behalf subsequent operations are issued. The
  // replayer sets this per trace record; implementations stamp it onto the
  // device I/O they generate (and onto buffered dirty data, so the eventual
  // flush is billed to the dirtier). Default implementation ignores it —
  // a file system with no tenant-aware accounting stays valid.
  virtual void set_current_tenant(TenantId tenant) { (void)tenant; }
  virtual TenantId current_tenant() const { return kDefaultTenant; }

  // Creates an empty regular file. Parent directory must exist.
  virtual Status Create(const std::string& path) = 0;

  // Removes a regular file and releases its storage.
  virtual Status Unlink(const std::string& path) = 0;

  // Creates a directory. Parent must exist.
  virtual Status Mkdir(const std::string& path) = 0;

  // Removes an empty directory.
  virtual Status Rmdir(const std::string& path) = 0;

  // Reads up to out.size() bytes at `offset`; returns bytes read (0 at or
  // past EOF).
  virtual Result<uint64_t> Read(const std::string& path, uint64_t offset,
                                std::span<uint8_t> out) = 0;

  // Writes data at `offset`, extending the file as needed. Returns bytes
  // written.
  virtual Result<uint64_t> Write(const std::string& path, uint64_t offset,
                                 std::span<const uint8_t> data) = 0;

  // Shrinks or extends (zero-filled) the file to `size`.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  virtual Result<FileInfo> Stat(const std::string& path) = 0;

  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  // Names (not paths) of entries in a directory.
  virtual Result<std::vector<std::string>> List(const std::string& path) = 0;

  // Forces all buffered dirty data to stable storage.
  virtual Status Sync() = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_FILE_SYSTEM_H_
