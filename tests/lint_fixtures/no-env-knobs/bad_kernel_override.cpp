// Fixture: library code that lets an environment variable pick its
// behaviour. Two runs with identical arguments can then diverge; the
// selection belongs in an explicit option (gf::set_active_kernel, the
// CLI's --kernel).
#include <cstdlib>
#include <string_view>

const char* pick_kernel() {
  // finding: ambient override read with std::getenv
  if (const char* env = std::getenv("THINAIR_GF_KERNEL")) return env;
  // finding: the glibc variant is no better
  if (const char* env = secure_getenv("THINAIR_GF_KERNEL")) return env;
  // finding: the global-namespace spelling
  return ::getenv("THINAIR_MODE");
}
