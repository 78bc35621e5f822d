#include "ir/parser.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <vector>

#include "support/failpoint.h"
#include "support/string_utils.h"

namespace lpo::ir {
namespace {

// ---------------------------------------------------------------------
// Lexing. Every token is a view into the caller's text; nothing is
// copied until it becomes part of the IR (a name, a label).
// ---------------------------------------------------------------------

enum : uint8_t { kSpace = 1, kWord = 2 };

/** Byte classes: C-locale whitespace, and the word class
 *  [A-Za-z0-9._+-] shared by keywords, names and numbers. */
constexpr std::array<uint8_t, 256> kCharClass = [] {
    std::array<uint8_t, 256> table{};
    for (char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        table[static_cast<unsigned char>(c)] = kSpace;
    for (int c = 0; c < 256; ++c)
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-' ||
            c == '+')
            table[c] = kWord;
    return table;
}();

bool
isSpace(char c)
{
    return kCharClass[static_cast<unsigned char>(c)] == kSpace;
}

bool
isWord(char c)
{
    return kCharClass[static_cast<unsigned char>(c)] == kWord;
}

/** A whitespace-insensitive cursor over one line of IR text. */
class LineCursor
{
  public:
    LineCursor(std::string_view text, int line_no)
        : text_(text), line_(line_no)
    {}

    int lineNo() const { return line_; }

    char
    peekChar()
    {
        skipSpace();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    /** Consume one punctuation character if it matches. */
    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /** The next word (possibly empty); numbers are words too, and the
     *  caller classifies them. */
    std::string_view
    word()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < text_.size() && isWord(text_[pos_]))
            ++pos_;
        return text_.substr(start, pos_ - start);
    }

    /** Consume a specific keyword if present. */
    bool
    consumeWord(std::string_view keyword)
    {
        size_t saved = pos_;
        if (word() == keyword)
            return true;
        pos_ = saved;
        return false;
    }

    /** Consume words while they are in @p keywords, calling @p take on
     *  each; stop before the first that is not. */
    template <typename Take>
    void
    consumeWhile(std::initializer_list<std::string_view> keywords,
                 Take take)
    {
        for (;;) {
            size_t saved = pos_;
            std::string_view w = word();
            bool known = false;
            for (std::string_view keyword : keywords)
                known = known || w == keyword;
            if (!known) {
                pos_ = saved;
                return;
            }
            take(w);
        }
    }

    /** A local identifier after '%'. */
    std::optional<std::string_view>
    localName()
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '%')
            return std::nullopt;
        ++pos_;
        return word();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    std::string_view text_;
    size_t pos_ = 0;
    int line_;
};

/**
 * The non-blank lines of a text, each cut at its first ';' (comments),
 * with their 1-based line numbers. Lines are views into the text.
 */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : text_(text) {}

    /** Advance to the next non-blank line; false at the end. */
    bool
    next()
    {
        while (pos_ <= text_.size()) {
            size_t end = text_.find('\n', pos_);
            if (end == std::string_view::npos)
                end = text_.size();
            std::string_view line = text_.substr(pos_, end - pos_);
            pos_ = end + 1;
            ++number_;
            line = line.substr(0, line.find(';'));
            if (!trim(line).empty()) {
                line_ = line;
                last_number_ = number_;
                return true;
            }
        }
        return false;
    }

    std::string_view line() const { return line_; }
    int number() const { return last_number_; }

  private:
    std::string_view text_;
    size_t pos_ = 0;
    int number_ = 0;
    std::string_view line_;
    int last_number_ = 0;
};

bool
isIntegerLiteral(std::string_view w)
{
    size_t i = !w.empty() && w[0] == '-' ? 1 : 0;
    if (i == w.size())
        return false;
    for (; i < w.size(); ++i)
        if (w[i] < '0' || w[i] > '9')
            return false;
    return true;
}

/** The value of an integer literal as strtoll reads it: clamped to
 *  the int64 range. */
int64_t
integerValue(std::string_view w)
{
    int64_t value = 0;
    auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), value);
    if (ec == std::errc::result_out_of_range)
        return w[0] == '-' ? INT64_MIN : INT64_MAX;
    return value;
}

/** The value of an integer literal as strtoul reads it (a '-'
 *  negates modulo 2^64); nullopt when the magnitude overflows. */
std::optional<uint64_t>
unsignedValue(std::string_view w)
{
    bool negative = w[0] == '-';
    uint64_t value = 0;
    auto [end, ec] = std::from_chars(w.data() + negative,
                                     w.data() + w.size(), value);
    if (ec != std::errc())
        return std::nullopt;
    return negative ? 0 - value : value;
}

/** A whole-word floating-point literal (it has a '.', 'e' or 'E', and
 *  strtod consumes all of it). */
std::optional<double>
floatValue(std::string_view w)
{
    if (w.find_first_of(".eE") == std::string_view::npos)
        return std::nullopt;
    std::string text(w);
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return std::nullopt;
    return value;
}

/**
 * A fixed keyword table that looks up views without allocating: open
 * addressing on (length, first byte, last byte), then one compare.
 */
template <typename T>
class KeywordMap
{
  public:
    constexpr KeywordMap(
        std::initializer_list<std::pair<std::string_view, T>> entries)
    {
        for (const auto &[key, value] : entries) {
            size_t i = slot(key);
            while (!slots_[i].key.empty())
                i = (i + 1) & kMask;
            slots_[i] = {key, value};
        }
    }

    const T *
    find(std::string_view w) const
    {
        if (w.empty())
            return nullptr;
        for (size_t i = slot(w); !slots_[i].key.empty(); i = (i + 1) & kMask)
            if (slots_[i].key == w)
                return &slots_[i].value;
        return nullptr;
    }

  private:
    static constexpr size_t kMask = 63;

    static constexpr size_t
    slot(std::string_view w)
    {
        return (w.size() * 131 + static_cast<unsigned char>(w.front()) * 31 +
                static_cast<unsigned char>(w.back())) &
               kMask;
    }

    struct Slot
    {
        std::string_view key;
        T value{};
    };
    std::array<Slot, kMask + 1> slots_{};
};

/** Instruction keywords; "tail" and "call" both map to Call. */
constexpr KeywordMap<Opcode> kOpcodes = {
    {"add", Opcode::Add},     {"sub", Opcode::Sub},
    {"mul", Opcode::Mul},     {"udiv", Opcode::UDiv},
    {"sdiv", Opcode::SDiv},   {"urem", Opcode::URem},
    {"srem", Opcode::SRem},   {"shl", Opcode::Shl},
    {"lshr", Opcode::LShr},   {"ashr", Opcode::AShr},
    {"and", Opcode::And},     {"or", Opcode::Or},
    {"xor", Opcode::Xor},     {"fadd", Opcode::FAdd},
    {"fsub", Opcode::FSub},   {"fmul", Opcode::FMul},
    {"fdiv", Opcode::FDiv},   {"icmp", Opcode::ICmp},
    {"fcmp", Opcode::FCmp},   {"select", Opcode::Select},
    {"trunc", Opcode::Trunc}, {"zext", Opcode::ZExt},
    {"sext", Opcode::SExt},   {"freeze", Opcode::Freeze},
    {"tail", Opcode::Call},   {"call", Opcode::Call},
    {"load", Opcode::Load},   {"store", Opcode::Store},
    {"getelementptr", Opcode::Gep},
    {"phi", Opcode::Phi},     {"br", Opcode::Br},
    {"ret", Opcode::Ret},
};

constexpr KeywordMap<ICmpPred> kICmpPreds = {
    {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},
    {"ugt", ICmpPred::UGT}, {"uge", ICmpPred::UGE},
    {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE},
    {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
    {"slt", ICmpPred::SLT}, {"sle", ICmpPred::SLE},
};

constexpr KeywordMap<FCmpPred> kFCmpPreds = {
    {"false", FCmpPred::False}, {"oeq", FCmpPred::OEQ},
    {"ogt", FCmpPred::OGT},     {"oge", FCmpPred::OGE},
    {"olt", FCmpPred::OLT},     {"ole", FCmpPred::OLE},
    {"one", FCmpPred::ONE},     {"ord", FCmpPred::ORD},
    {"ueq", FCmpPred::UEQ},     {"ugt", FCmpPred::UGT},
    {"uge", FCmpPred::UGE},     {"ult", FCmpPred::ULT},
    {"ule", FCmpPred::ULE},     {"une", FCmpPred::UNE},
    {"uno", FCmpPred::UNO},     {"true", FCmpPred::True},
};

std::optional<Intrinsic>
intrinsicFromSymbol(std::string_view symbol)
{
    static constexpr std::pair<std::string_view, Intrinsic> kPrefixes[] = {
        {"llvm.umin.", Intrinsic::UMin},
        {"llvm.umax.", Intrinsic::UMax},
        {"llvm.smin.", Intrinsic::SMin},
        {"llvm.smax.", Intrinsic::SMax},
        {"llvm.abs.", Intrinsic::Abs},
        {"llvm.ctpop.", Intrinsic::CtPop},
        {"llvm.ctlz.", Intrinsic::CtLz},
        {"llvm.cttz.", Intrinsic::CtTz},
        {"llvm.fabs.", Intrinsic::FAbs},
        {"llvm.usub.sat.", Intrinsic::USubSat},
        {"llvm.uadd.sat.", Intrinsic::UAddSat},
        {"llvm.ssub.sat.", Intrinsic::SSubSat},
        {"llvm.sadd.sat.", Intrinsic::SAddSat},
    };
    for (const auto &[prefix, intr] : kPrefixes)
        if (symbol.starts_with(prefix))
            return intr;
    return std::nullopt;
}

/**
 * The local names of one function: open addressing over views into
 * the parsed text (or into argument names the function owns). The
 * first 32 slots live in the table itself, so a typical function's
 * names cost no allocation.
 */
class NameTable
{
  public:
    NameTable() = default;
    NameTable(const NameTable &) = delete;
    NameTable &operator=(const NameTable &) = delete;

    Value *
    find(std::string_view name) const
    {
        const Slot &slot = slots_[probe(name)];
        return slot.value;
    }

    /** Bind @p name; false (and no change) if it is already bound. */
    bool
    bind(std::string_view name, Value *value)
    {
        Slot &slot = slots_[probe(name)];
        if (slot.value)
            return false;
        slot = {name, value};
        if (2 * ++size_ > capacity_)
            grow();
        return true;
    }

  private:
    struct Slot
    {
        std::string_view name;
        Value *value = nullptr;
    };

    /** The slot holding @p name, or the empty slot where it goes. */
    size_t
    probe(std::string_view name) const
    {
        uint64_t hash = 0xcbf29ce484222325ull;
        for (char c : name)
            hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        size_t i = hash & (capacity_ - 1);
        while (slots_[i].value && slots_[i].name != name)
            i = (i + 1) & (capacity_ - 1);
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_, slots_ + capacity_);
        heap_.assign(2 * capacity_, Slot{});
        slots_ = heap_.data();
        capacity_ = heap_.size();
        for (const Slot &slot : old)
            if (slot.value)
                slots_[probe(slot.name)] = slot;
    }

    std::array<Slot, 32> inline_{};
    std::vector<Slot> heap_;
    Slot *slots_ = inline_.data();
    size_t capacity_ = inline_.size();
    size_t size_ = 0;
};

/** A use of a not-yet-defined local (phi back-edges). */
struct Fixup
{
    Instruction *inst;
    unsigned operand_index;
    std::string_view name;
    int line;
};

/** Parser state for one function body. */
class FunctionParser
{
  public:
    FunctionParser(Context &context) : context_(context) {}

    /** Parse the function whose "define" line is @p lines' current
     *  line; on success @p lines is left on its closing "}". */
    Result<std::unique_ptr<Function>> run(LineReader &lines);

  private:
    Error err(int line, std::string message)
    {
        return Error{std::move(message), line, 0};
    }

    Result<const Type *> parseType(LineCursor &cur);
    Result<Value *> parseValueRef(LineCursor &cur, const Type *type);
    Result<Value *> parseTypedValue(LineCursor &cur, const Type **type_out);
    Result<Instruction *> parseInstruction(LineCursor &cur,
                                           BasicBlock *block);
    Result<bool> resolveFixups();

    Context &context_;
    std::unique_ptr<Function> fn_;
    NameTable values_;
    std::vector<Fixup> fixups_;
    // Operand slots of the instruction currently being parsed that
    // reference still-undefined names.
    std::vector<std::pair<unsigned, std::string_view>> pending_;
    unsigned current_operand_index_ = 0;
    // The last scalar type word and its type: most type words repeat.
    std::string_view last_type_word_;
    const Type *last_type_ = nullptr;
};

Result<const Type *>
FunctionParser::parseType(LineCursor &cur)
{
    TypeContext &types = context_.types();
    if (cur.consume('<')) {
        std::string_view count = cur.word();
        if (!isIntegerLiteral(count) || count[0] == '-')
            return err(cur.lineNo(), "expected vector lane count");
        if (!cur.consumeWord("x"))
            return err(cur.lineNo(), "expected 'x' in vector type");
        Result<const Type *> elem = parseType(cur);
        if (!elem)
            return elem;
        if (!cur.consume('>'))
            return err(cur.lineNo(), "expected '>' to close vector type");
        std::optional<uint64_t> lanes = unsignedValue(count);
        if (!lanes || *lanes < 2 || *lanes > 64)
            return err(cur.lineNo(), "unsupported vector lane count");
        if (!(*elem)->isInt() && !(*elem)->isFloat())
            return err(cur.lineNo(), "invalid vector element type");
        return types.vectorTy(*elem, static_cast<unsigned>(*lanes));
    }
    std::string_view w = cur.word();
    if (w == last_type_word_ && !w.empty())
        return last_type_;
    const Type *type = nullptr;
    if (w.size() >= 2 && w[0] == 'i' && isIntegerLiteral(w.substr(1))) {
        std::optional<uint64_t> width = unsignedValue(w.substr(1));
        if (!width || *width < 1 || *width > 64)
            return err(cur.lineNo(), "unsupported integer width '" +
                                         std::string(w) + "'");
        type = types.intTy(static_cast<unsigned>(*width));
    } else if (w == "void") {
        type = types.voidTy();
    } else if (w == "ptr") {
        type = types.ptrTy();
    } else if (w == "double" || w == "float") {
        type = types.floatTy();
    }
    if (type) {
        last_type_word_ = w;
        last_type_ = type;
        return type;
    }
    return err(cur.lineNo(), "expected type, found '" + std::string(w) + "'");
}

Result<Value *>
FunctionParser::parseValueRef(LineCursor &cur, const Type *type)
{
    int line = cur.lineNo();
    char next = cur.peekChar();
    if (next == '%') {
        std::string_view name = *cur.localName();
        if (Value *v = values_.find(name)) {
            if (v->type() != type) {
                return err(line, "'%" + std::string(name) +
                                     "' defined with type '" +
                                     v->type()->toString() +
                                     "' but expected '" + type->toString() +
                                     "'");
            }
            return v;
        }
        // Forward reference: record a pending slot and emit a
        // placeholder that resolveFixups() replaces.
        pending_.emplace_back(current_operand_index_, name);
        return static_cast<Value *>(context_.getPoison(type));
    }
    if (next == '<') {
        // Literal vector: < i32 1, i32 2, ... >
        if (!type->isVector())
            return err(line, "vector constant for non-vector type");
        cur.consume('<');
        std::vector<const Value *> elems;
        elems.reserve(type->lanes());
        for (unsigned i = 0; i < type->lanes(); ++i) {
            if (i && !cur.consume(','))
                return err(line, "expected ',' in vector constant");
            Result<const Type *> ety = parseType(cur);
            if (!ety)
                return ety.error();
            if (*ety != type->scalarType())
                return err(line, "vector element type mismatch");
            Result<Value *> ev = parseValueRef(cur, *ety);
            if (!ev)
                return ev;
            elems.push_back(*ev);
        }
        if (!cur.consume('>'))
            return err(line, "expected '>' to close vector constant");
        return static_cast<Value *>(
            context_.getVector(type, std::move(elems)));
    }
    std::string_view w = cur.word();
    if (isIntegerLiteral(w)) {
        if (!type->isInt())
            return err(line, "integer constant for non-integer type '" +
                                 type->toString() + "'");
        return static_cast<Value *>(context_.getInt(
            type, APInt::fromSigned(type->intWidth(), integerValue(w))));
    }
    if (w == "zeroinitializer") {
        if (!type->isVector())
            return err(line, "zeroinitializer requires a vector type");
        return context_.getNullValue(type);
    }
    if (w == "splat") {
        if (!type->isVector())
            return err(line, "splat requires a vector type");
        if (!cur.consume('('))
            return err(line, "expected '(' after splat");
        Result<const Type *> ety = parseType(cur);
        if (!ety)
            return ety.error();
        if (*ety != type->scalarType())
            return err(line, "splat element type mismatch");
        Result<Value *> ev = parseValueRef(cur, *ety);
        if (!ev)
            return ev;
        if (!cur.consume(')'))
            return err(line, "expected ')' after splat value");
        return static_cast<Value *>(context_.getSplat(type, *ev));
    }
    if (w == "poison" || w == "undef")
        return static_cast<Value *>(context_.getPoison(type));
    if (w == "true" || w == "false") {
        if (!type->isBool())
            return err(line, "boolean constant for non-i1 type");
        return static_cast<Value *>(context_.getBool(w == "true"));
    }
    if (std::optional<double> fp = floatValue(w)) {
        if (!type->isFloat())
            return err(line, "floating-point constant for non-float type");
        return static_cast<Value *>(context_.getFP(*fp));
    }
    if (w.empty())
        return err(line, "expected value");
    return err(line, "expected value, found '" + std::string(w) + "'");
}

Result<Value *>
FunctionParser::parseTypedValue(LineCursor &cur, const Type **type_out)
{
    Result<const Type *> type = parseType(cur);
    if (!type)
        return type.error();
    if (type_out)
        *type_out = *type;
    return parseValueRef(cur, *type);
}

/** ", align N" after a load or store; a non-integer N is ignored, as
 *  is one whose magnitude does not fit 64 bits. */
void
parseAlign(LineCursor &cur, Instruction *inst)
{
    if (cur.consume(',') && cur.consumeWord("align")) {
        std::string_view a = cur.word();
        if (isIntegerLiteral(a))
            if (std::optional<uint64_t> align = unsignedValue(a))
                inst->setAlign(static_cast<unsigned>(*align));
    }
}

Result<Instruction *>
FunctionParser::parseInstruction(LineCursor &cur, BasicBlock *block)
{
    int line = cur.lineNo();
    pending_.clear();

    std::string_view result_name;
    bool has_result = false;
    if (cur.peekChar() == '%') {
        // Look ahead for "%name =".
        LineCursor probe = cur;
        std::string_view name = *probe.localName();
        if (probe.consume('=')) {
            result_name = name;
            has_result = true;
            cur = probe;
        }
    }

    std::string_view op_word = cur.word();
    const Opcode *opcode = kOpcodes.find(op_word);
    if (!opcode) {
        // This is the message LLVM's parser produces for a bogus
        // opcode; the LLM feedback loop depends on its wording (paper
        // Fig. 3c).
        return err(line,
                   "expected instruction opcode\n" + std::string(op_word));
    }
    const Opcode op = *opcode;
    InstFlags flags;

    auto finish = [&](std::unique_ptr<Instruction> inst)
        -> Result<Instruction *> {
        inst->flags().tail = flags.tail || inst->flags().tail;
        if (has_result) {
            if (inst->type()->isVoid())
                return err(line, "cannot name a void instruction");
            inst->setName(std::string(result_name));
        } else if (!inst->type()->isVoid() && !inst->isTerminator()) {
            return err(line, "instruction result must be named");
        }
        Instruction *placed = block->append(std::move(inst));
        if (has_result && !values_.bind(result_name, placed))
            return err(line, "multiple definition of local value '%" +
                                 std::string(result_name) + "'");
        for (const auto &[index, name] : pending_)
            fixups_.push_back(Fixup{placed, index, name, line});
        return placed;
    };

    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::UDiv: case Opcode::SDiv: case Opcode::URem:
      case Opcode::SRem: case Opcode::Shl: case Opcode::LShr:
      case Opcode::AShr: case Opcode::And: case Opcode::Or:
      case Opcode::Xor: case Opcode::FAdd: case Opcode::FSub:
      case Opcode::FMul: case Opcode::FDiv: {
        // Any binary operator takes any of the wrap/exact/disjoint
        // flags here; the IR verifier and the printer decide which
        // ones mean something.
        cur.consumeWhile({"nuw", "nsw", "exact", "disjoint"},
                         [&](std::string_view w) {
                             flags.nuw |= w == "nuw";
                             flags.nsw |= w == "nsw";
                             flags.exact |= w == "exact";
                             flags.disjoint |= w == "disjoint";
                         });
        const Type *type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> lhs = parseTypedValue(cur, &type);
        if (!lhs)
            return lhs.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after first operand");
        current_operand_index_ = 1;
        Result<Value *> rhs = parseValueRef(cur, type);
        if (!rhs)
            return rhs.error();
        bool is_fp = op >= Opcode::FAdd && op <= Opcode::FDiv;
        if (is_fp && !type->isFPOrFPVector())
            return err(line, "floating-point operation on non-float type");
        if (!is_fp && !type->isIntOrIntVector())
            return err(line, "integer operation on non-integer type");
        auto inst = std::make_unique<Instruction>(
            op, type, std::vector<Value *>{*lhs, *rhs});
        inst->flags() = flags;
        return finish(std::move(inst));
      }

      case Opcode::ICmp: case Opcode::FCmp: {
        std::string_view pred_word = cur.word();
        const Type *type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> lhs = parseTypedValue(cur, &type);
        if (!lhs)
            return lhs.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after first operand");
        current_operand_index_ = 1;
        Result<Value *> rhs = parseValueRef(cur, type);
        if (!rhs)
            return rhs.error();
        const Type *result = type->isVector()
            ? context_.types().vectorTy(context_.types().boolTy(),
                                        type->lanes())
            : context_.types().boolTy();
        auto inst = std::make_unique<Instruction>(
            op, result, std::vector<Value *>{*lhs, *rhs});
        if (op == Opcode::ICmp) {
            const ICmpPred *pred = kICmpPreds.find(pred_word);
            if (!pred)
                return err(line, "invalid icmp predicate '" +
                                     std::string(pred_word) + "'");
            if (!type->isIntOrIntVector() && !type->isPtr())
                return err(line, "icmp requires integer operands");
            inst->setICmpPred(*pred);
        } else {
            const FCmpPred *pred = kFCmpPreds.find(pred_word);
            if (!pred)
                return err(line, "invalid fcmp predicate '" +
                                     std::string(pred_word) + "'");
            if (!type->isFPOrFPVector())
                return err(line, "fcmp requires floating-point operands");
            inst->setFCmpPred(*pred);
        }
        return finish(std::move(inst));
      }

      case Opcode::Select: {
        const Type *cond_type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> cond = parseTypedValue(cur, &cond_type);
        if (!cond)
            return cond.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after select condition");
        const Type *val_type = nullptr;
        current_operand_index_ = 1;
        Result<Value *> tval = parseTypedValue(cur, &val_type);
        if (!tval)
            return tval.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after select true value");
        const Type *fval_type = nullptr;
        current_operand_index_ = 2;
        Result<Value *> fval = parseTypedValue(cur, &fval_type);
        if (!fval)
            return fval.error();
        if (val_type != fval_type)
            return err(line, "select operand types differ");
        bool cond_ok = cond_type->isBool() ||
            (cond_type->isVector() && cond_type->scalarType()->isBool() &&
             val_type->isVector() &&
             cond_type->lanes() == val_type->lanes());
        if (!cond_ok)
            return err(line, "select condition must be i1 or matching "
                             "<N x i1>");
        auto inst = std::make_unique<Instruction>(
            Opcode::Select, val_type,
            std::vector<Value *>{*cond, *tval, *fval});
        return finish(std::move(inst));
      }

      case Opcode::Trunc: case Opcode::ZExt: case Opcode::SExt: {
        if (op == Opcode::Trunc)
            cur.consumeWhile({"nuw", "nsw"}, [&](std::string_view w) {
                flags.nuw |= w == "nuw";
                flags.nsw |= w == "nsw";
            });
        else if (op == Opcode::ZExt)
            cur.consumeWhile({"nneg"},
                             [&](std::string_view) { flags.nneg = true; });
        const Type *src_type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> src = parseTypedValue(cur, &src_type);
        if (!src)
            return src.error();
        if (!cur.consumeWord("to"))
            return err(line, "expected 'to' in cast");
        Result<const Type *> dst = parseType(cur);
        if (!dst)
            return dst.error();
        if (!src_type->isIntOrIntVector() || !(*dst)->isIntOrIntVector())
            return err(line, "cast requires integer types");
        if (src_type->isVector() != (*dst)->isVector() ||
            (src_type->isVector() &&
             src_type->lanes() != (*dst)->lanes())) {
            return err(line, "cast lane count mismatch");
        }
        unsigned src_w = src_type->scalarType()->intWidth();
        unsigned dst_w = (*dst)->scalarType()->intWidth();
        if (op == Opcode::Trunc && dst_w >= src_w)
            return err(line, "trunc must narrow the type");
        if (op != Opcode::Trunc && dst_w <= src_w)
            return err(line, "extension must widen the type");
        auto inst = std::make_unique<Instruction>(
            op, *dst, std::vector<Value *>{*src});
        inst->flags() = flags;
        return finish(std::move(inst));
      }

      case Opcode::Freeze: {
        const Type *type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> val = parseTypedValue(cur, &type);
        if (!val)
            return val.error();
        auto inst = std::make_unique<Instruction>(
            Opcode::Freeze, type, std::vector<Value *>{*val});
        return finish(std::move(inst));
      }

      case Opcode::Call: {
        if (op_word == "tail") {
            flags.tail = true;
            if (!cur.consumeWord("call"))
                return err(line, "expected 'call' after 'tail'");
        }
        Result<const Type *> ret_type = parseType(cur);
        if (!ret_type)
            return ret_type.error();
        if (!cur.consume('@'))
            return err(line, "expected callee name");
        std::string_view symbol = cur.word();
        auto intr = intrinsicFromSymbol(symbol);
        if (!intr)
            return err(line, "unknown or unsupported callee '@" +
                                 std::string(symbol) + "'");
        if (!cur.consume('('))
            return err(line, "expected '(' in call");
        std::vector<Value *> args;
        if (!cur.consume(')')) {
            for (;;) {
                current_operand_index_ = args.size();
                Result<Value *> arg = parseTypedValue(cur, nullptr);
                if (!arg)
                    return arg.error();
                args.push_back(*arg);
                if (cur.consume(')'))
                    break;
                if (!cur.consume(','))
                    return err(line, "expected ',' or ')' in call");
            }
        }
        // Arity / type checks per intrinsic.
        auto bad_signature = [&]() {
            return err(line, "invalid signature for '@" +
                                 std::string(symbol) + "'");
        };
        switch (*intr) {
          case Intrinsic::UMin: case Intrinsic::UMax:
          case Intrinsic::SMin: case Intrinsic::SMax:
          case Intrinsic::USubSat: case Intrinsic::UAddSat:
          case Intrinsic::SSubSat: case Intrinsic::SAddSat:
            if (args.size() != 2 || args[0]->type() != *ret_type ||
                args[1]->type() != *ret_type ||
                !(*ret_type)->isIntOrIntVector()) {
                return bad_signature();
            }
            break;
          case Intrinsic::Abs:
          case Intrinsic::CtLz:
          case Intrinsic::CtTz:
            if (args.size() != 2 || args[0]->type() != *ret_type ||
                !args[1]->type()->isBool() ||
                !(*ret_type)->isIntOrIntVector()) {
                return bad_signature();
            }
            break;
          case Intrinsic::CtPop:
            if (args.size() != 1 || args[0]->type() != *ret_type ||
                !(*ret_type)->isIntOrIntVector()) {
                return bad_signature();
            }
            break;
          case Intrinsic::FAbs:
            if (args.size() != 1 || args[0]->type() != *ret_type ||
                !(*ret_type)->isFPOrFPVector()) {
                return bad_signature();
            }
            break;
          case Intrinsic::None:
            return bad_signature();
        }
        auto inst = std::make_unique<Instruction>(
            Opcode::Call, *ret_type, std::move(args));
        inst->setIntrinsic(*intr);
        inst->flags().tail = flags.tail;
        return finish(std::move(inst));
      }

      case Opcode::Load: {
        Result<const Type *> type = parseType(cur);
        if (!type)
            return type.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after load type");
        const Type *ptr_type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> ptr = parseTypedValue(cur, &ptr_type);
        if (!ptr)
            return ptr.error();
        if (!ptr_type->isPtr())
            return err(line, "load pointer operand must have type 'ptr'");
        auto inst = std::make_unique<Instruction>(
            Opcode::Load, *type, std::vector<Value *>{*ptr});
        inst->setAccessType(*type);
        parseAlign(cur, inst.get());
        return finish(std::move(inst));
      }

      case Opcode::Store: {
        const Type *val_type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> val = parseTypedValue(cur, &val_type);
        if (!val)
            return val.error();
        if (!cur.consume(','))
            return err(line, "expected ',' after store value");
        const Type *ptr_type = nullptr;
        current_operand_index_ = 1;
        Result<Value *> ptr = parseTypedValue(cur, &ptr_type);
        if (!ptr)
            return ptr.error();
        if (!ptr_type->isPtr())
            return err(line, "store pointer operand must have type 'ptr'");
        auto inst = std::make_unique<Instruction>(
            Opcode::Store, context_.types().voidTy(),
            std::vector<Value *>{*val, *ptr});
        inst->setAccessType(val_type);
        parseAlign(cur, inst.get());
        return finish(std::move(inst));
      }

      case Opcode::Gep: {
        // nusw is accepted and ignored.
        cur.consumeWhile({"inbounds", "nuw", "nusw"},
                         [&](std::string_view w) {
                             flags.inbounds |= w == "inbounds";
                             flags.nuw |= w == "nuw";
                         });
        Result<const Type *> elem = parseType(cur);
        if (!elem)
            return elem.error();
        std::vector<Value *> operands;
        while (cur.consume(',')) {
            current_operand_index_ = operands.size();
            Result<Value *> v = parseTypedValue(cur, nullptr);
            if (!v)
                return v.error();
            operands.push_back(*v);
        }
        if (operands.empty() || !operands[0]->type()->isPtr())
            return err(line, "getelementptr requires a pointer base");
        if (operands.size() != 2 ||
            !operands[1]->type()->isInt()) {
            return err(line, "only single-index getelementptr supported");
        }
        auto inst = std::make_unique<Instruction>(
            Opcode::Gep, context_.types().ptrTy(), std::move(operands));
        inst->setAccessType(*elem);
        inst->flags() = flags;
        return finish(std::move(inst));
      }

      case Opcode::Phi: {
        Result<const Type *> type = parseType(cur);
        if (!type)
            return type.error();
        std::vector<Value *> incoming;
        std::vector<std::string> labels;
        for (;;) {
            if (!cur.consume('['))
                return err(line, "expected '[' in phi");
            current_operand_index_ = incoming.size();
            Result<Value *> v = parseValueRef(cur, *type);
            if (!v)
                return v.error();
            incoming.push_back(*v);
            if (!cur.consume(','))
                return err(line, "expected ',' in phi incoming pair");
            auto label = cur.localName();
            if (!label)
                return err(line, "expected predecessor label in phi");
            labels.emplace_back(*label);
            if (!cur.consume(']'))
                return err(line, "expected ']' in phi");
            if (!cur.consume(','))
                break;
        }
        auto inst = std::make_unique<Instruction>(
            Opcode::Phi, *type, std::move(incoming));
        inst->setPhiLabels(std::move(labels));
        return finish(std::move(inst));
      }

      case Opcode::Br: {
        if (cur.consumeWord("label")) {
            auto label = cur.localName();
            if (!label)
                return err(line, "expected label in br");
            auto inst = std::make_unique<Instruction>(
                Opcode::Br, context_.types().voidTy(),
                std::vector<Value *>{});
            inst->setBrLabels({std::string(*label)});
            return finish(std::move(inst));
        }
        const Type *cond_type = nullptr;
        current_operand_index_ = 0;
        Result<Value *> cond = parseTypedValue(cur, &cond_type);
        if (!cond)
            return cond.error();
        if (!cond_type->isBool())
            return err(line, "br condition must be i1");
        std::vector<std::string> labels;
        for (int i = 0; i < 2; ++i) {
            if (!cur.consume(','))
                return err(line, "expected ',' in br");
            if (!cur.consumeWord("label"))
                return err(line, "expected 'label' in br");
            auto label = cur.localName();
            if (!label)
                return err(line, "expected label in br");
            labels.emplace_back(*label);
        }
        auto inst = std::make_unique<Instruction>(
            Opcode::Br, context_.types().voidTy(),
            std::vector<Value *>{*cond});
        inst->setBrLabels(std::move(labels));
        return finish(std::move(inst));
      }

      case Opcode::Ret: {
        if (cur.consumeWord("void")) {
            auto inst = std::make_unique<Instruction>(
                Opcode::Ret, context_.types().voidTy(),
                std::vector<Value *>{});
            return finish(std::move(inst));
        }
        current_operand_index_ = 0;
        Result<Value *> val = parseTypedValue(cur, nullptr);
        if (!val)
            return val.error();
        auto inst = std::make_unique<Instruction>(
            Opcode::Ret, context_.types().voidTy(),
            std::vector<Value *>{*val});
        return finish(std::move(inst));
      }
    }
    return err(line, "expected instruction opcode\n" + std::string(op_word));
}

Result<bool>
FunctionParser::resolveFixups()
{
    for (const Fixup &fixup : fixups_) {
        Value *v = values_.find(fixup.name);
        if (!v) {
            return Error{"use of undefined value '%" +
                             std::string(fixup.name) + "'",
                         fixup.line, 0};
        }
        fixup.inst->setOperand(fixup.operand_index, v);
    }
    fixups_.clear();
    return true;
}

Result<std::unique_ptr<Function>>
FunctionParser::run(LineReader &lines)
{
    // Parse the "define" header. Anything after its '{' is ignored.
    LineCursor header(lines.line(), lines.number());
    if (!header.consumeWord("define"))
        return err(header.lineNo(), "expected 'define'");
    // Skip common attribute keywords between define and the type.
    header.consumeWhile({"internal", "dso_local", "noundef", "hidden"},
                        [](std::string_view) {});
    Result<const Type *> ret_type = parseType(header);
    if (!ret_type)
        return ret_type.error();
    if (!header.consume('@'))
        return err(header.lineNo(), "expected function name");
    std::string_view fn_name = header.word();
    if (!header.consume('('))
        return err(header.lineNo(), "expected '(' in function header");

    fn_ = std::make_unique<Function>(context_, std::string(fn_name),
                                     *ret_type);
    if (!header.consume(')')) {
        for (;;) {
            Result<const Type *> arg_type = parseType(header);
            if (!arg_type)
                return arg_type.error();
            // Skip parameter attributes.
            header.consumeWhile({"noundef", "nonnull", "readonly",
                                 "nocapture", "writeonly"},
                                [](std::string_view) {});
            std::string_view name = header.localName().value_or("");
            Argument *arg = fn_->addArg(*arg_type, std::string(name));
            if (!name.empty() && !values_.bind(name, arg))
                return err(header.lineNo(), "duplicate argument name '%" +
                                                std::string(name) + "'");
            if (header.consume(')'))
                break;
            if (!header.consume(','))
                return err(header.lineNo(),
                           "expected ',' or ')' in argument list");
        }
    }
    fn_->numberValues();
    // Register auto-assigned numeric argument names.
    for (const auto &arg : fn_->args())
        values_.bind(arg->name(), arg.get());
    if (!header.consume('{'))
        return err(header.lineNo(), "expected '{' to begin function body");

    BasicBlock *block = nullptr;
    while (lines.next()) {
        int line_no = lines.number();
        std::string_view body = trim(lines.line());
        if (body == "}") {
            if (!fn_->blocks().empty() && fn_->entry()->terminator() ==
                nullptr && fn_->blocks().size() == 1 &&
                fn_->entry()->empty()) {
                return err(line_no, "empty function body");
            }
            Result<bool> resolved = resolveFixups();
            if (!resolved)
                return resolved.error();
            if (fn_->blocks().empty())
                return err(line_no, "function has no basic blocks");
            for (const auto &bb : fn_->blocks()) {
                if (!bb->terminator()) {
                    return err(line_no, "block '" + bb->label() +
                                            "' lacks a terminator");
                }
            }
            fn_->numberValues();
            return std::move(fn_);
        }
        // Label line: "name:".
        if (body.back() == ':' && body.find(' ') == std::string_view::npos) {
            block = fn_->addBlock(std::string(body.substr(0, body.size() - 1)));
            continue;
        }
        if (!block)
            block = fn_->addBlock("entry");
        LineCursor cur(lines.line(), line_no);
        Result<Instruction *> inst = parseInstruction(cur, block);
        if (!inst)
            return inst.error();
    }
    return err(lines.number(), "expected '}' to close function body");
}

/** True when @p line, trimmed, starts a function definition. */
bool
isDefineLine(std::string_view line)
{
    return startsWith(trim(line), "define");
}

} // namespace

Result<std::unique_ptr<Module>>
parseModule(Context &context, std::string_view text, std::string module_name)
{
    // Chaos-test injection: well-formed input rejected at the front
    // door, the same shape as a truncated or corrupt .ll file.
    if (LPO_FAILPOINT("parser.fail"))
        return Error{"injected parse failure (failpoint parser.fail)",
                     0, 0};
    auto module = std::make_unique<Module>(context, std::move(module_name));
    LineReader lines(text);
    // Declarations, attributes and metadata between definitions are
    // tolerated and skipped.
    while (lines.next()) {
        if (!isDefineLine(lines.line()))
            continue;
        FunctionParser fp(context);
        Result<std::unique_ptr<Function>> fn = fp.run(lines);
        if (!fn)
            return fn.error();
        module->addFunction(fn.take());
    }
    if (module->functions().empty())
        return Error{"no function definitions found", 0, 0};
    return module;
}

Result<std::unique_ptr<Function>>
parseFunction(Context &context, std::string_view text)
{
    if (LPO_FAILPOINT("parser.fail"))
        return Error{"injected parse failure (failpoint parser.fail)",
                     0, 0};
    LineReader lines(text);
    while (lines.next()) {
        if (isDefineLine(lines.line())) {
            FunctionParser fp(context);
            return fp.run(lines);
        }
    }
    return Error{"no function definition found", 0, 0};
}

} // namespace lpo::ir
