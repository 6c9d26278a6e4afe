/**
 * @file
 * The text codecs every decoder shares (DESIGN.md §8).
 *
 * Names: an enum lists each enumerator's stable name once, in
 * declaration order, in a constexpr enumNames(E) beside it, which
 * argument-dependent lookup finds:
 *
 *     constexpr auto enumNames(FaultSite)
 *     {
 *         return nameTable<FaultSite>({{FaultSite::FpuReg, "fpu-reg"},
 *                                      ...});
 *     }
 *
 * A table that misses, repeats or misplaces an enumerator fails the
 * build. enumName() and findEnum() read it in both directions.
 *
 * Numbers: parseNumber() takes a token that is one number of its type
 * and nothing else, decimal or hex after an optional 0x, where
 * std::stoull would read "12abc" as 12 and "-1" as 2^64 - 1.
 */

#ifndef MTFPU_COMMON_TEXT_HH
#define MTFPU_COMMON_TEXT_HH

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

namespace mtfpu
{

enum class ErrCode : uint8_t; // common/sim_error.hh

/** One enumerator and its stable name. */
template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

namespace detail
{

/** Whether @p V is a declared enumerator: the compiler spells one by
 *  name in this signature and any other value as a cast, "(E)7". */
template <auto V>
constexpr bool
isEnumerator()
{
    const std::string_view signature = __PRETTY_FUNCTION__;
    return signature[signature.rfind("= ") + 2] != '(';
}

template <typename E, size_t... I>
constexpr size_t
enumeratorCount(std::index_sequence<I...>)
{
    return (size_t{isEnumerator<static_cast<E>(I)>()} + ...);
}

} // namespace detail

/** E's name table from @p entries, checked at compile time: every
 *  enumerator of E once, in declaration order, by distinct names. */
template <typename E, size_t N>
consteval std::array<EnumName<E>, N>
nameTable(const EnumName<E> (&entries)[N])
{
    static_assert(N == detail::enumeratorCount<E>(
                           std::make_index_sequence<64>()),
                  "a name table names every enumerator once");
    std::array<EnumName<E>, N> table{};
    for (size_t i = 0; i < N; ++i) {
        if (entries[i].value != static_cast<E>(i))
            throw "name table out of declaration order";
        for (size_t j = 0; j < i; ++j) {
            if (std::string_view(entries[i].name) == entries[j].name)
                throw "name used twice in a name table";
        }
        table[i] = entries[i];
    }
    return table;
}

template <typename E>
inline constexpr auto kEnumNames = enumNames(E{});

/** Stable name of @p value. */
template <typename E>
constexpr const char *
enumName(E value)
{
    return kEnumNames<E>[static_cast<size_t>(value)].name;
}

/** The enumerator named @p name, or nullopt when none is. */
template <typename E>
constexpr std::optional<E>
findEnum(std::string_view name)
{
    for (const EnumName<E> &entry : kEnumNames<E>) {
        if (name == entry.name)
            return entry.value;
    }
    return std::nullopt;
}

/** Throws SimError(@p code) "unknown <what> '<name>'". */
[[noreturn]] void unknownName(ErrCode code, const char *what,
                              std::string_view name);

/** findEnum(), or SimError(@p code) for a name no enumerator has. */
template <typename E>
E
parseEnum(std::string_view name, const char *what, ErrCode code)
{
    if (const std::optional<E> value = findEnum<E>(name))
        return *value;
    unknownName(code, what, name);
}

/** How parseNumber reads an integer's digits. */
enum class Digits : uint8_t
{
    Decimal,
    Hex, // after an optional 0x
};

/**
 * @p text as a T when the whole token is one number that fits T:
 * integer digits as @p digits says, or std::from_chars' general form
 * for a floating-point T. A '-' only where T has a sign; no '+', no
 * space, nothing after the number.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text, Digits digits = Digits::Decimal)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    const char *end = text.data() + text.size();
    T value{};
    std::from_chars_result result{};
    if constexpr (std::is_floating_point_v<T>) {
        result = std::from_chars(text.data(), end, value);
    } else {
        const bool hex = digits == Digits::Hex;
        const bool prefixed = hex && text.size() > 2 && text[0] == '0' &&
                              (text[1] == 'x' || text[1] == 'X');
        result = std::from_chars(text.data() + (prefixed ? 2 : 0), end,
                                 value, hex ? 16 : 10);
    }
    if (result.ec != std::errc() || result.ptr != end)
        return std::nullopt;
    return value;
}

} // namespace mtfpu

#endif // MTFPU_COMMON_TEXT_HH
