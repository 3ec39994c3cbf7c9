// expect-error: nodiscard
//
// A base::Status dropped through std::function, the type of an RpcHandler:
// the failed step it reports would go unseen.

#include <functional>

#include "src/base/status.h"

void RunStep(const std::function<base::Status()>& step) {
  step();
}
