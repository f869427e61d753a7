#include "mem/mshr.h"

#include "core/logging.h"

namespace csp::mem {

MshrFile::MshrFile(unsigned slots) : busy_(slots, 0)
{
    CSP_ASSERT(slots > 0);
}

} // namespace csp::mem
