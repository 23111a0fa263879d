#include "common/page_array.h"

#include <sys/mman.h>

#include <new>

namespace gaugur::common {

void PageDeleter::operator()(void* pages) const {
  if (pages != nullptr) munmap(pages, bytes);
}

void* MapPages(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

}  // namespace gaugur::common
