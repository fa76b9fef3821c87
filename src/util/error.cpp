#include "util/error.h"

namespace repro {

void require(bool condition, const std::string& what) {
  if (!condition) throw Error(what);
}

void fail_requirement(const char* what) { throw Error(what); }

}  // namespace repro
