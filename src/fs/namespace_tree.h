// NamespaceTree — the directory tree of the memory-resident file systems
// (MemoryFileSystem, and LogFileSystem's cached metadata): nodes whose
// entries sit in a name-ordered map (List, the dense checkpoint's preorder
// and the recovery claim order all follow it), plus the id -> inode index.
// Nodes, map entries and index entries come from RequestArenas the tree
// owns, so a file costs no heap allocation of its own beyond its inode's
// contents, and destroying the tree hands the arenas' slabs back in a few
// calls instead of freeing three objects per file.
// The tree owns the namespace checks and their errors. Callers pass:
//  * a hook, run once per directory entry a walk looks up or List returns
//    (MemoryFileSystem charges a DRAM read there);
//  * to Insert, Remove and Move, a commit step run after every check and
//    before the change (MemoryFileSystem journals there); if it fails, the
//    op fails with the tree unchanged.

#ifndef SSMC_SRC_FS_NAMESPACE_TREE_H_
#define SSMC_SRC_FS_NAMESPACE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fs/file_system.h"
#include "src/fs/path.h"
#include "src/support/arena.h"
#include "src/support/status.h"

namespace ssmc {

// `Inode` needs a default constructor and `uint64_t id` and `size` fields.
template <typename Inode>
class NamespaceTree {
 public:
  struct Node;
  // Dirs' entries, each child owned by the tree. std::less<> enables lookups
  // by string_view without a key copy.
  using Children =
      std::map<std::string, Node*, std::less<>,
               ArenaAllocator<std::pair<const std::string, Node*>>>;
  struct Node {
    explicit Node(RequestArena* entries)
        : children(ArenaAllocator<Node*>(entries)) {}
    bool is_dir = false;
    Children children;  // Dirs only.
    Inode inode;        // Files only.
  };

  // A node detached by Remove; deleting it returns it to the tree's node
  // arena.
  struct NodeDeleter {
    RequestArena* arena;
    void operator()(Node* node) const { arena->Delete(node); }
  };
  using NodePtr = std::unique_ptr<Node, NodeDeleter>;

  struct NoHook {
    void operator()() const {}
  };
  struct NoCommit {
    Status operator()() const { return Status::Ok(); }
  };

  NamespaceTree() { root_.is_dir = true; }
  ~NamespaceTree() { DeleteChildren(root_); }

  NamespaceTree(const NamespaceTree&) = delete;
  NamespaceTree& operator=(const NamespaceTree&) = delete;

  Node& root() { return root_; }

  // The node `path` names, or null if the path is invalid, a component is
  // missing or a file is traversed.
  template <typename Hook = NoHook>
  Node* Find(std::string_view path, Hook hook = {}) {
    if (!IsValidPath(path)) {
      return nullptr;
    }
    Node* node = &root_;
    for (const std::string_view component : PathComponents(path)) {
      if (!node->is_dir) {
        return nullptr;
      }
      hook();
      auto it = node->children.find(component);
      if (it == node->children.end()) {
        return nullptr;
      }
      node = it->second;
    }
    return node;
  }

  // The directory that holds (or would hold) `path`, or null.
  template <typename Hook = NoHook>
  Node* FindParent(std::string_view path, Hook hook = {}) {
    if (!IsValidPath(path) || path == "/") {
      return nullptr;
    }
    Node* parent = Find(ParentPathView(path), hook);
    return parent != nullptr && parent->is_dir ? parent : nullptr;
  }

  // The inode of the file `path` names: NOT_FOUND, or FAILED_PRECONDITION
  // for a directory.
  template <typename Hook = NoHook>
  Result<Inode*> FindFile(std::string_view path, Hook hook = {}) {
    Node* node = Find(path, hook);
    if (node == nullptr) {
      return NotFoundError(std::string(path));
    }
    if (node->is_dir) {
      return FailedPreconditionError(std::string(path) + " is a directory");
    }
    return &node->inode;
  }

  template <typename Hook = NoHook>
  Result<FileInfo> Stat(std::string_view path, Hook hook = {}) {
    Node* node = Find(path, hook);
    if (node == nullptr) {
      return NotFoundError(std::string(path));
    }
    FileInfo info;
    info.is_directory = node->is_dir;
    info.size = node->is_dir ? 0 : node->inode.size;
    return info;
  }

  // The entry names of directory `path`, in name order; the hook also runs
  // once per entry returned.
  template <typename Hook = NoHook>
  Result<std::vector<std::string>> List(std::string_view path,
                                        Hook hook = {}) {
    Node* node = Find(path, hook);
    if (node == nullptr) {
      return NotFoundError(std::string(path));
    }
    if (!node->is_dir) {
      return FailedPreconditionError(std::string(path) +
                                     " is not a directory");
    }
    std::vector<std::string> names;
    names.reserve(node->children.size());
    for (const auto& [name, child] : node->children) {
      hook();
      names.push_back(name);
    }
    return names;
  }

  // Adds an empty file or directory at `path`; a file takes inode id
  // next_id() and joins the index.
  template <typename Hook = NoHook, typename Commit = NoCommit>
  Result<Node*> Insert(std::string_view path, bool is_dir, Hook hook = {},
                       Commit commit = {}) {
    Node* parent = FindParent(path, hook);
    if (parent == nullptr) {
      return NotFoundError("no parent directory for " + std::string(path));
    }
    const std::string_view name = BaseNameView(path);
    if (parent->children.contains(name)) {
      return AlreadyExistsError(std::string(path));
    }
    SSMC_RETURN_IF_ERROR(commit());
    Inode inode;
    if (!is_dir) {
      inode.id = next_id_++;
    }
    return Insert(*parent, name, is_dir, std::move(inode));
  }

  // Adds `name` under `parent`: a file holding `inode` (which joins the
  // index) or an empty directory. Null, changing nothing, on a duplicate.
  Node* Insert(Node& parent, std::string_view name, bool is_dir,
               Inode inode = {}) {
    auto [it, inserted] = parent.children.try_emplace(std::string(name));
    if (!inserted) {
      return nullptr;
    }
    Node* node = node_arena_.New<Node>(&entry_arena_);
    it->second = node;
    node->is_dir = is_dir;
    if (!is_dir) {
      node->inode = std::move(inode);
      index_[node->inode.id] = &node->inode;
    }
    return node;
  }

  // Detaches the file (or, with `is_dir`, the empty directory) at `path`
  // and returns it; a file leaves the index.
  template <typename Hook = NoHook, typename Commit = NoCommit>
  Result<NodePtr> Remove(std::string_view path, bool is_dir, Hook hook = {},
                         Commit commit = {}) {
    Node* parent = FindParent(path, hook);
    if (parent == nullptr) {
      return NotFoundError("no parent directory for " + std::string(path));
    }
    auto it = parent->children.find(BaseNameView(path));
    if (it == parent->children.end()) {
      return NotFoundError(std::string(path));
    }
    if (it->second->is_dir != is_dir) {
      return FailedPreconditionError(std::string(path) +
                                     (is_dir ? " is not a directory"
                                             : " is a directory"));
    }
    if (!it->second->children.empty()) {
      return FailedPreconditionError(std::string(path) + " is not empty");
    }
    SSMC_RETURN_IF_ERROR(commit());
    NodePtr node(it->second, NodeDeleter{&node_arena_});
    parent->children.erase(it);
    if (!is_dir) {
      index_.erase(node->inode.id);
    }
    return node;
  }

  // Renames `from` to `to`, which must not exist yet nor lie under `from`.
  template <typename Hook = NoHook, typename Commit = NoCommit>
  Status Move(std::string_view from, std::string_view to, Hook hook = {},
              Commit commit = {}) {
    if (IsSameOrUnder(to, from)) {
      return InvalidArgumentError("cannot move " + std::string(from) +
                                  " into itself");
    }
    Node* from_parent = FindParent(from, hook);
    if (from_parent == nullptr) {
      return NotFoundError(std::string(from));
    }
    auto it = from_parent->children.find(BaseNameView(from));
    if (it == from_parent->children.end()) {
      return NotFoundError(std::string(from));
    }
    Node* to_parent = FindParent(to, hook);
    if (to_parent == nullptr) {
      return NotFoundError("no parent directory for " + std::string(to));
    }
    const std::string_view to_name = BaseNameView(to);
    if (to_parent->children.contains(to_name)) {
      return AlreadyExistsError(std::string(to));
    }
    SSMC_RETURN_IF_ERROR(commit());
    to_parent->children.emplace(std::string(to_name), it->second);
    from_parent->children.erase(it);
    return Status::Ok();
  }

  // Visits every node but the root, in preorder with each directory's
  // entries in name order, as fn(node, name, parent): nodes are numbered
  // 1, 2, ... in visit order and `parent` is the number of the node's
  // directory (0 for the root).
  template <typename Fn>
  void Walk(Fn&& fn) {
    WalkUnder(root_, 0, 1, fn);
  }

  // The inode with id `id`, or null.
  Inode* FindInode(uint64_t id) {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : it->second;
  }

  // Gives a file inode id `id`; later files number past it.
  void Renumber(Inode& inode, uint64_t id) {
    index_.erase(inode.id);
    inode.id = id;
    index_[id] = &inode;
    next_id_ = std::max(next_id_, id + 1);
  }

  uint64_t next_id() const { return next_id_; }
  void set_next_id(uint64_t id) { next_id_ = id; }

 private:
  template <typename Fn>
  static uint32_t WalkUnder(Node& dir, uint32_t dir_number, uint32_t next,
                            Fn& fn) {
    for (const auto& [name, child] : dir.children) {
      const uint32_t number = next++;
      fn(*child, std::string_view(name), dir_number);
      if (child->is_dir) {
        next = WalkUnder(*child, number, next, fn);
      }
    }
    return next;
  }

  // Deletes every node under `dir`.
  void DeleteChildren(Node& dir) {
    for (const auto& [name, child] : dir.children) {
      DeleteChildren(*child);
      node_arena_.Delete(child);
    }
  }

  // Nodes, map entries (a value plus four words of tree links) and index
  // entries (a value plus a link) each take chunks of their own size, 32 to
  // a slab; an entry larger than its chunk falls back to the heap. Declared
  // first: everything below allocates from them.
  RequestArena node_arena_{sizeof(Node), 32};
  RequestArena entry_arena_{
      sizeof(typename Children::value_type) + 4 * sizeof(void*), 32};
  RequestArena index_arena_{
      sizeof(std::pair<const uint64_t, Inode*>) + sizeof(void*), 32};
  Node root_{&entry_arena_};
  // Inode id -> inode, owned by the tree. Only probed by id, never iterated.
  std::unordered_map<uint64_t, Inode*, std::hash<uint64_t>,
                     std::equal_to<uint64_t>,
                     ArenaAllocator<std::pair<const uint64_t, Inode*>>>
      index_{0, ArenaAllocator<Inode*>(&index_arena_)};
  uint64_t next_id_ = 1;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_NAMESPACE_TREE_H_
