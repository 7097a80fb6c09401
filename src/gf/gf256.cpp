#include "gf/gf256.h"

#include <ostream>

#include "gf/kernels.h"

namespace thinair::gf {

std::ostream& operator<<(std::ostream& os, GF256 v) {
  return os << "g" << static_cast<unsigned>(v.value());
}

// The bulk span primitives dispatch through the retargetable kernel layer
// (gf/kernels.h): scalar log/exp, AVX2 vpshufb, or GFNI+AVX-512,
// chosen at runtime. All kernels compute identical bytes.

void axpy(GF256 c, const std::uint8_t* x, std::uint8_t* y, std::size_t n) {
  active_kernel().axpy(c.value(), x, y, n);
}

void scale(GF256 c, std::uint8_t* y, std::size_t n) {
  active_kernel().mul_row(c.value(), y, y, n);
}

}  // namespace thinair::gf
