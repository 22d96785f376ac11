// The stable public include path for the ffp facade: everything an
// embedder needs is behind `#include "ffp/api.hpp"` (see src/api/api.hpp
// for the surface). Internal headers under api/, solver/ and runtime/ may
// reorganize; this path will not.
#pragma once

#include "api/api.hpp"
