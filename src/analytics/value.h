#ifndef RAPIDA_ANALYTICS_VALUE_H_
#define RAPIDA_ANALYTICS_VALUE_H_

#include <optional>
#include <string>

#include "rdf/dictionary.h"

namespace rapida::analytics {

/// Interns a computed numeric value (aggregate result, arithmetic result)
/// as a canonical literal so that every engine produces bit-identical
/// result cells: integral values become xsd:integer literals, others
/// xsd:double with a fixed "%.10g" rendering.
rdf::TermId InternNumber(rdf::Dictionary* dict, double value);

/// Three-way comparison of two terms with SPARQL-ish semantics: if both are
/// numeric literals compare numerically, otherwise compare (kind, text).
/// Returns <0, 0, >0.
int CompareTerms(const rdf::Dictionary& dict, rdf::TermId a, rdf::TermId b);

/// CompareTerms given na = AsNumber(a) and nb = AsNumber(b), as a caller
/// that caches them (MIN/MAX) already holds: two numbers compare without a
/// dictionary read, anything else with one Get per side.
int CompareTermsWithNums(const rdf::Dictionary& dict, rdf::TermId a,
                         const std::optional<double>& na, rdf::TermId b,
                         const std::optional<double>& nb);

/// Display form of a term for result printing: IRIs shortened to their
/// local name, literals as their lexical value.
std::string DisplayTerm(const rdf::Dictionary& dict, rdf::TermId id);

}  // namespace rapida::analytics

#endif  // RAPIDA_ANALYTICS_VALUE_H_
