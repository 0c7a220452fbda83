#include "polymg/grid/buffer.hpp"

#include <algorithm>

namespace polymg::grid {

void Buffer::fill(double v) { std::fill_n(data_.get(), count_, v); }

Buffer Buffer::clone() const {
  Buffer b(count_);
  if (count_ > 0) std::memcpy(b.data(), data_.get(), count_ * sizeof(double));
  return b;
}

}  // namespace polymg::grid
