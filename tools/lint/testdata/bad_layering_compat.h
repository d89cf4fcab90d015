// lint-as: src/xplain/compat.h
// Known-bad corpus: a shim header in src/xplain gets no exemption from the
// case-agnosticism rule — whatever its name, a core header that includes a
// concrete domain (here te/) drags that domain into every pipeline
// consumer.
#pragma once

#include "te/demand_pinning.h"  // expect-lint: layering
#include "xplain/pipeline.h"    // same layer: OK

namespace xplain {

int shim_reaching_into_te() { return 0; }

}  // namespace xplain
