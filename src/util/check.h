// Lightweight precondition / invariant checking for the PRLC library.
//
// The library reports contract violations by throwing std::logic_error
// subclasses (C++ Core Guidelines I.6/E.x: express preconditions and use
// exceptions for error handling). Checks are always on: the cost is
// negligible next to the linear-algebra work this library performs, and
// silent corruption of a decoding matrix is far worse than a branch.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace prlc {

/// Thrown when a function argument violates a documented precondition.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an internal invariant is violated (library bug, not misuse).
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_precondition(const char* expr, const char* file, int line,
                                            const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file, int line,
                                         const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}

}  // namespace detail
}  // namespace prlc

/// Validate a caller-supplied argument; throws prlc::PreconditionError.
#define PRLC_REQUIRE(expr, msg)                                            \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::prlc::detail::throw_precondition(#expr, __FILE__, __LINE__, msg);  \
    }                                                                      \
  } while (0)

/// Validate an internal invariant; throws prlc::InvariantError.
#define PRLC_ASSERT(expr, msg)                                          \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::prlc::detail::throw_invariant(#expr, __FILE__, __LINE__, msg);  \
    }                                                                   \
  } while (0)
