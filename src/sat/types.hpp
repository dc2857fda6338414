#pragma once
// Basic SAT types: variables, literals and the three-valued lbool.
//
// The encoding follows the MiniSat convention: a literal packs a variable
// index and a sign into one int (2*var + sign), so literals index arrays
// (watch lists, activity tables) directly.

#include <cstdint>
#include <vector>

namespace cbq::sat {

/// Variable index, 0-based. Negative values are invalid.
using Var = std::int32_t;

inline constexpr Var kUndefVar = -1;

/// A SAT literal: variable plus sign. sign()==true means negated.
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated)
      : x_(v + v + static_cast<std::int32_t>(negated)) {}

  static constexpr Lit fromIndex(std::int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  [[nodiscard]] constexpr Var var() const { return x_ >> 1; }
  [[nodiscard]] constexpr bool sign() const { return (x_ & 1) != 0; }
  /// Dense index for literal-indexed arrays.
  [[nodiscard]] constexpr std::int32_t index() const { return x_; }

  constexpr Lit operator!() const { return fromIndex(x_ ^ 1); }
  constexpr Lit operator^(bool flip) const {
    return fromIndex(x_ ^ static_cast<std::int32_t>(flip));
  }

  constexpr bool operator==(const Lit&) const = default;
  constexpr auto operator<=>(const Lit&) const = default;

 private:
  std::int32_t x_ = -2;
};

inline constexpr Lit kUndefLit = Lit::fromIndex(-2);

/// Lifted boolean: True / False / Undef.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

/// Lifted value of `b`.
inline constexpr LBool lbool(bool b) {
  return b ? LBool::True : LBool::False;
}

/// XORs a sign into a lifted boolean (Undef is absorbing).
inline constexpr LBool lxor(LBool v, bool flip) {
  if (v == LBool::Undef) return LBool::Undef;
  return lbool((v == LBool::True) != flip);
}

/// Outcome of a solve call.
enum class Status : std::uint8_t { Sat, Unsat, Undef };

/// Three-valued answer of a budgeted semantic check. Holds/Fails are
/// definitive; Unknown means the budget or an interrupt cut the query
/// short. (cnf::Verdict aliases this type.)
enum class Verdict : std::uint8_t { Holds, Fails, Unknown };

}  // namespace cbq::sat
