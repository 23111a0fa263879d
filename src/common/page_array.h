// Arrays in anonymous pages of their own, handed back to the operating
// system when destroyed. A freed heap block stays resident until the
// allocator can trim it, which it rarely can once later allocations sit
// above it; a short-lived buffer of a megabyte or more would so outlive
// its owner in the process's resident set. Model training keeps its
// per-fit buffers here.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace gaugur::common {

/// Unmaps pages that MapPages mapped (`bytes` long).
struct PageDeleter {
  std::size_t bytes = 0;
  void operator()(void* pages) const;
};

/// Maps `bytes` of zero-filled pages, or returns null for 0 bytes.
/// Throws std::bad_alloc when the mapping fails.
void* MapPages(std::size_t bytes);

template <class T>
using PageArray = std::unique_ptr<T[], PageDeleter>;

/// `size` zero-filled T in pages of their own.
template <class T>
PageArray<T> MapPageArray(std::size_t size) {
  static_assert(std::is_trivially_copyable_v<T>);
  return PageArray<T>(static_cast<T*>(MapPages(size * sizeof(T))),
                      PageDeleter{size * sizeof(T)});
}

}  // namespace gaugur::common
