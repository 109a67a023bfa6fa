// Typed wire codec over serde.h's Writer/Reader.
//
// Wire<T> gives each C++ type one encoding, so a frame is described by the
// list of its field types instead of by hand-written put_*/get_* sequences:
//   - integers: fixed-width little-endian of sizeof(T); enums by their
//     underlying type; bool as one canonical byte;
//   - std::string and std::vector<u8>: u32 length prefix plus the bytes;
//   - std::vector<T>: u32 element count plus each element;
//   - std::optional<T>: a trailing optional field, present iff bytes remain;
//   - structs: their fields in order, declared once with Fields<>.
// Shape<T...> is a whole frame. Encoders take each field's In type (a
// string_view for a string, a span for bytes or a sequence), decoders fill
// the owning type and report failure instead of reading past the end; a
// caller that needs an exact frame checks Reader::exhausted() afterwards.
#ifndef VNROS_SRC_BASE_CODEC_H_
#define VNROS_SRC_BASE_CODEC_H_

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/base/types.h"

namespace vnros {

template <typename T>
struct Wire;

template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
struct Wire<T> {
  using In = T;
  static void put(Writer& w, T v) {
    if constexpr (std::is_same_v<T, bool>) {
      w.put_bool(v);
    } else if constexpr (sizeof(T) == 1) {
      w.put_u8(static_cast<u8>(v));
    } else if constexpr (sizeof(T) == 2) {
      w.put_u16(static_cast<u16>(v));
    } else if constexpr (sizeof(T) == 4) {
      w.put_u32(static_cast<u32>(v));
    } else {
      static_assert(sizeof(T) == 8);
      w.put_u64(static_cast<u64>(v));
    }
  }
  static bool get(Reader& r, T& out) {
    if constexpr (std::is_same_v<T, bool>) {
      return take(r.get_bool(), out);
    } else if constexpr (sizeof(T) == 1) {
      return take(r.get_u8(), out);
    } else if constexpr (sizeof(T) == 2) {
      return take(r.get_u16(), out);
    } else if constexpr (sizeof(T) == 4) {
      return take(r.get_u32(), out);
    } else {
      return take(r.get_u64(), out);
    }
  }

 private:
  template <typename U>
  static bool take(std::optional<U> v, T& out) {
    if (v) {
      out = static_cast<T>(*v);
    }
    return v.has_value();
  }
};

template <>
struct Wire<std::string> {
  using In = std::string_view;
  static void put(Writer& w, std::string_view s) { w.put_string(s); }
  static bool get(Reader& r, std::string& out) {
    auto s = r.get_string();
    if (s) {
      out = std::move(*s);
    }
    return s.has_value();
  }
};

template <>
struct Wire<std::vector<u8>> {
  using In = std::span<const u8>;
  static void put(Writer& w, std::span<const u8> b) { w.put_bytes(b); }
  static bool get(Reader& r, std::vector<u8>& out) {
    auto b = r.get_bytes();
    if (b) {
      out = std::move(*b);
    }
    return b.has_value();
  }
};

template <typename T>
struct Wire<std::vector<T>> {
  using In = std::span<const T>;
  static void put(Writer& w, std::span<const T> items) {
    w.put_u32(static_cast<u32>(items.size()));
    for (const T& item : items) {
      Wire<T>::put(w, item);
    }
  }
  static bool get(Reader& r, std::vector<T>& out) {
    auto n = r.get_u32();
    if (!n) {
      return false;
    }
    // Every element takes at least one byte: a hostile count cannot drive
    // an allocation larger than the frame.
    out.clear();
    out.reserve(std::min<usize>(*n, r.remaining()));
    for (u32 i = 0; i < *n; ++i) {
      if (!Wire<T>::get(r, out.emplace_back())) {
        return false;
      }
    }
    return true;
  }
};

template <typename T>
struct Wire<std::optional<T>> {
  using In = std::optional<T>;
  static void put(Writer& w, const std::optional<T>& v) {
    if (v) {
      Wire<T>::put(w, *v);
    }
  }
  static bool get(Reader& r, std::optional<T>& out) {
    if (r.exhausted()) {
      out.reset();
      return true;
    }
    return Wire<T>::get(r, out.emplace());
  }
};

template <>
struct Wire<Unit> {
  using In = Unit;
  static void put(Writer&, Unit) {}
  static bool get(Reader&, Unit&) { return true; }
};

// A struct encoded as the listed data members, in order:
//   template <> struct Wire<FileStat> : Fields<FileStat, &FileStat::inode, ...> {};
template <typename S, auto... M>
struct Fields {
  using In = S;
  static void put(Writer& w, const S& s) { (Wire<Member<M>>::put(w, s.*M), ...); }
  static bool get(Reader& r, S& s) { return (Wire<Member<M>>::get(r, s.*M) && ...); }

 private:
  template <auto P>
  using Member = std::remove_cvref_t<decltype(std::declval<S&>().*P)>;
};

template <>
struct Wire<VAddr> : Fields<VAddr, &VAddr::value> {};

template <typename A, typename B>
struct Wire<std::pair<A, B>> : Fields<std::pair<A, B>, &std::pair<A, B>::first,
                                      &std::pair<A, B>::second> {};

// A frame: the fields T... in order.
template <typename... T>
struct Shape {
  using Tuple = std::tuple<T...>;
  static void put([[maybe_unused]] Writer& w, typename Wire<T>::In... fields) {
    (Wire<T>::put(w, fields), ...);
  }
  // Decodes every field or fails at the first one that does not decode.
  static bool get(Reader& r, Tuple& out) {
    return std::apply([&r](T&... fields) { return (Wire<T>::get(r, fields) && ...); }, out);
  }
};

}  // namespace vnros

#endif  // VNROS_SRC_BASE_CODEC_H_
