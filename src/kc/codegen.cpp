#include "kc/codegen.hpp"

#include <bit>
#include <functional>
#include <sstream>

#include "kc/asm.hpp"
#include "kc/opt.hpp"
#include "simt/config.hpp"
#include "support/bits.hpp"
#include "support/logging.hpp"

namespace kc
{

namespace
{

using isa::Op;

// Fixed register roles.
constexpr uint8_t REG_ZERO = 0;
constexpr uint8_t REG_SCRATCH = 1;  ///< codegen-internal scratch
constexpr uint8_t REG_SP = 2;       ///< per-thread stack frame base
constexpr uint8_t REG_ARG = 3;      ///< argument block base
constexpr uint8_t REG_SCRATCH2 = 4; ///< second scratch
constexpr uint8_t REG_HARTID = 5;
constexpr uint8_t REG_TIDX = 6; ///< threadIdx.x
constexpr uint8_t FIRST_ALLOC = 7;

/** Address of the kernel-argument block in DRAM (4 KiB aligned). */
constexpr uint32_t kArgBlockAddr = simt::kDramBase + 0x1000;

bool
fitsImm12(int64_t v)
{
    return v >= -2048 && v <= 2047;
}

/** An operand: a register, owned (returnable to the pool) or borrowed. */
struct Opnd
{
    uint8_t reg = 0;
    bool owned = false;
};

/** Thrown when a register class is exhausted; compile() retries with a
 * different dedicated/temporary split. */
struct RegPressure
{
    bool dedicated;
};

class CodeGen
{
  public:
    CodeGen(const KernelIr &ir, const CompileOptions &opt,
            uint8_t temp_floor)
        : ir_(ir), opt_(opt), tempFloor_(temp_floor)
    {
        fatal_if(!support::isPowerOfTwo(opt_.blockDim) ||
                     opt_.blockDim > opt_.numThreads,
                 "blockDim must be a power of two <= thread count");
        fatal_if(!support::isPowerOfTwo(opt_.stackBytes),
                 "stackBytes must be a power of two");
        fatal_if(opt_.numSms == 0, "a kernel needs at least one SM");
        fatal_if(opt_.numSms > 1 &&
                     (opt_.numThreads % (opt_.numSms * opt_.blockDim) != 0 ||
                      !support::isPowerOfTwo(opt_.numThreads /
                                             opt_.numSms / opt_.blockDim)),
                 "each SM needs a power-of-two number of block slots");

        // Block placement (DESIGN.md section 8): split the grid into
        // numSms * rounds contiguous chunks of at most slotsPerSm_ blocks.
        // SM k's local slot j < chunk_ starts at block k * chunk_ + j
        // and strides by numSms * chunk_; slots j >= chunk_ start past
        // the grid. When chunk_ == slotsPerSm_ this is the identity
        // (block slot = global hart slot), which is also what a single
        // SM always uses.
        slotsPerSm_ = opt_.numThreads / opt_.numSms / opt_.blockDim;
        chunk_ = slotsPerSm_;
        if (opt_.numSms > 1 && opt_.gridDim > 0) {
            const unsigned slots = opt_.numSms * slotsPerSm_;
            const unsigned rounds = (opt_.gridDim + slots - 1) / slots;
            const unsigned chunks = opt_.numSms * rounds;
            chunk_ = (opt_.gridDim + chunks - 1) / chunks;
        }
    }

    CompiledKernel run();

  private:
    bool purecap() const { return opt_.mode == CompileOptions::Mode::Purecap; }
    bool softBounds() const
    {
        return opt_.mode == CompileOptions::Mode::SoftBounds;
    }

    // ---- Register management ----

    /**
     * A single pool of registers x7..x31 serves variables/parameters
     * (allocated from the bottom, long-lived) and expression temporaries
     * (allocated from the top, short-lived). When a capability-register
     * limit is in force (the paper's Section 4.3 compiler support), any
     * register that may hold a capability must be numbered below the
     * limit, so the metadata SRF only needs entries for those registers.
     */
    bool
    limitActive() const
    {
        return purecap() && opt_.capRegLimit > 0;
    }

    uint8_t
    allocDedicated(bool is_cap = false)
    {
        const uint8_t lo = FIRST_ALLOC;
        const uint8_t hi = limitActive() && is_cap
                               ? static_cast<uint8_t>(opt_.capRegLimit - 1)
                               : tempFloor_;
        if (limitActive() && !is_cap) {
            // Leave the low (capability-eligible) registers free for
            // capabilities: integers scan from the top of the range.
            for (int r = hi; r >= lo; --r) {
                if (!regBusy_[r]) {
                    regBusy_[r] = true;
                    regsHighWater_ =
                        std::max(regsHighWater_, unsigned(r));
                    return static_cast<uint8_t>(r);
                }
            }
            throw RegPressure{true};
        }
        for (uint8_t r = lo; r <= hi; ++r) {
            if (!regBusy_[r]) {
                regBusy_[r] = true;
                regsHighWater_ = std::max(regsHighWater_, unsigned(r));
                return r;
            }
        }
        throw RegPressure{true};
    }

    void
    freeDedicated(uint8_t r)
    {
        regBusy_[r] = false;
    }

    uint8_t
    allocTemp(bool is_cap = false)
    {
        const int hi = limitActive() && is_cap
                           ? static_cast<int>(opt_.capRegLimit) - 1
                           : 31;
        const int lo = limitActive() && is_cap
                           ? FIRST_ALLOC
                           : static_cast<int>(tempFloor_) + 1;
        for (int r = hi; r >= lo; --r) {
            if (!regBusy_[r]) {
                regBusy_[r] = true;
                regsHighWater_ = std::max(regsHighWater_, unsigned(r));
                return static_cast<uint8_t>(r);
            }
        }
        if (limitActive() && !is_cap) {
            // Integers may live anywhere: borrow a capability-eligible
            // register when the high range is exhausted.
            for (int r = static_cast<int>(opt_.capRegLimit) - 1;
                 r >= FIRST_ALLOC; --r) {
                if (!regBusy_[r]) {
                    regBusy_[r] = true;
                    regsHighWater_ =
                        std::max(regsHighWater_, unsigned(r));
                    return static_cast<uint8_t>(r);
                }
            }
        }
        throw RegPressure{false};
    }

    void
    release(const Opnd &o)
    {
        if (o.owned)
            regBusy_[o.reg] = false;
    }

    void
    markCap(uint8_t reg)
    {
        if (!purecap())
            return;
        fatal_if(limitActive() && reg >= opt_.capRegLimit,
                 "kernel %s: capability in x%u violates the register "
                 "limit of %u",
                 ir_.name.c_str(), reg, opt_.capRegLimit);
        capRegMask_ |= uint32_t{1} << reg;
    }

    // ---- Helpers ----

    /** Materialise a 32-bit constant into @p rd. */
    void
    loadConst(uint8_t rd, uint32_t value)
    {
        const int32_t sv = static_cast<int32_t>(value);
        if (fitsImm12(sv)) {
            a_.emitI(Op::ADDI, rd, REG_ZERO, sv);
            return;
        }
        // LUI + ADDI with the usual carry correction.
        const int32_t lo = support::signExtend32(value & 0xfff, 12);
        const uint32_t hi = value - static_cast<uint32_t>(lo);
        a_.emitI(Op::LUI, rd, 0, static_cast<int32_t>(hi));
        if (lo != 0)
            a_.emitI(Op::ADDI, rd, rd, lo);
    }

    /** Copy a register (capability-preserving in purecap mode). */
    void
    move(uint8_t rd, uint8_t rs, bool is_cap)
    {
        if (rd == rs)
            return;
        if (is_cap && purecap()) {
            a_.emitR(Op::CMOVE, rd, rs, 0);
            markCap(rd);
        } else {
            a_.emitI(Op::ADDI, rd, rs, 0);
        }
    }

    /** Advance a pointer register by a register amount (bytes). */
    void
    ptrAdd(uint8_t rd, uint8_t base, uint8_t bytes_reg)
    {
        if (purecap()) {
            a_.emitR(Op::CINCOFFSET, rd, base, bytes_reg);
            markCap(rd);
        } else {
            a_.emitR(Op::ADD, rd, base, bytes_reg);
        }
    }

    /** Advance a pointer register by a constant (bytes). */
    void
    ptrAddImm(uint8_t rd, uint8_t base, int32_t bytes)
    {
        if (purecap()) {
            if (bytes == 0 && rd == base)
                return;
            a_.emitI(Op::CINCOFFSETIMM, rd, base, bytes);
            markCap(rd);
        } else {
            if (bytes == 0 && rd == base)
                return;
            a_.emitI(Op::ADDI, rd, base, bytes);
        }
    }

    /** Root declaration of a pointer expression, if statically known. */
    struct PtrRoot
    {
        enum Kind { Unknown, Param, SharedArr, LocalArr } kind = Unknown;
        int index = -1;
    };

    PtrRoot
    ptrRoot(int node) const
    {
        const ExprNode &n = ir_.expr(node);
        switch (n.kind) {
          case ExprKind::ParamRef:
            return PtrRoot{PtrRoot::Param, n.index};
          case ExprKind::SharedRef:
            return PtrRoot{PtrRoot::SharedArr, n.index};
          case ExprKind::LocalRef:
            return PtrRoot{PtrRoot::LocalArr, n.index};
          case ExprKind::Binary:
            if (n.type.isPtr())
                return ptrRoot(n.a);
            return PtrRoot{};
          case ExprKind::Select:
            return PtrRoot{}; // divergent provenance
          default:
            return PtrRoot{};
        }
    }

    bool
    isPtrArray(int node) const
    {
        const PtrRoot root = ptrRoot(node);
        return root.kind == PtrRoot::LocalArr &&
               ir_.locals[root.index].isPtrArray;
    }

    /** Element stride in bytes of a pointer expression. */
    unsigned
    strideOf(int node) const
    {
        if (isPtrArray(node))
            return 8; // pointer slots are 8 bytes in every mode
        return scalarBytes(ir_.expr(node).type.elem);
    }

    // ---- Expression evaluation ----

    Opnd eval(int node);
    Opnd evalBinary(const ExprNode &n);
    Opnd evalSelect(const ExprNode &n);

    /**
     * Compute the address for a memory access through @p ptr_node.
     * Returns the base register plus a folded immediate byte offset.
     * In SoftBounds mode this also emits the bounds check.
     */
    struct Address
    {
        Opnd base;
        int32_t imm = 0;
    };
    Address genAddress(int ptr_node);

    void emitBoundsCheck(int ptr_node, int idx_node, uint8_t idx_reg);

    // ---- Statements ----

    void genBlock(const std::vector<Stmt> &stmts);
    void genStmt(const Stmt &s);

    /** Allocate/free registers for block-scoped variables. */
    void
    enterScope(const std::vector<int> &vars)
    {
        for (int v : vars)
            varReg_[v] = allocDedicated(purecap() &&
                                        ir_.vars[v].type.isPtr());
    }

    void
    leaveScope(const std::vector<int> &vars)
    {
        for (int v : vars) {
            freeDedicated(static_cast<uint8_t>(varReg_[v]));
            varReg_[v] = -1;
        }
    }
    void genStore(const Stmt &s);
    void genAtomic(const Stmt &s);

    void prologue();
    void dispatchLoopAndBody();

    const KernelIr &ir_;
    const CompileOptions &opt_;
    Assembler a_;

    uint8_t tempFloor_; ///< x7..tempFloor_ dedicated, rest temps
    bool regBusy_[32] = {};
    unsigned regsHighWater_ = 0;

    std::vector<uint8_t> paramReg_;
    std::vector<uint8_t> paramLenReg_; ///< SoftBounds slice lengths
    std::vector<uint8_t> sharedReg_;
    std::vector<int> varReg_; ///< -1 while the variable is out of scope
    uint8_t blockIdxReg_ = 0;
    uint8_t gridDimReg_ = 0;
    unsigned slotsPerSm_ = 0; ///< block slots per SM (a power of two)
    unsigned chunk_ = 0;      ///< active block slots per SM (<= slotsPerSm_)

    Label trapLabel_;
    bool trapUsed_ = false;

    uint32_t capRegMask_ = 0;
    unsigned unchecked_ = 0;
};

Opnd
CodeGen::eval(int node)
{
    const ExprNode &n = ir_.expr(node);
    switch (n.kind) {
      case ExprKind::ConstInt: {
        if (n.iconst == 0)
            return Opnd{REG_ZERO, false};
        const uint8_t t = allocTemp();
        loadConst(t, static_cast<uint32_t>(n.iconst));
        return Opnd{t, true};
      }
      case ExprKind::ConstFloat: {
        const uint8_t t = allocTemp();
        loadConst(t, std::bit_cast<uint32_t>(n.fconst));
        return Opnd{t, true};
      }
      case ExprKind::BuiltinVal:
        switch (n.builtin) {
          case Builtin::ThreadIdx:
            return Opnd{REG_TIDX, false};
          case Builtin::BlockIdx:
            return Opnd{blockIdxReg_, false};
          case Builtin::BlockDim: {
            const uint8_t t = allocTemp();
            loadConst(t, opt_.blockDim);
            return Opnd{t, true};
          }
          case Builtin::GridDim:
            return Opnd{gridDimReg_, false};
        }
        panic("bad builtin");
      case ExprKind::ParamRef:
        return Opnd{paramReg_[n.index], false};
      case ExprKind::VarRef:
        panic_if(varReg_[n.index] < 0, "variable used out of scope");
        return Opnd{static_cast<uint8_t>(varReg_[n.index]), false};
      case ExprKind::SharedRef:
        return Opnd{sharedReg_[n.index], false};
      case ExprKind::LocalRef: {
        const uint8_t t = allocTemp(purecap());
        ptrAddImm(t, REG_SP,
                  static_cast<int32_t>(ir_.locals[n.index].byteOffset));
        return Opnd{t, true};
      }
      case ExprKind::Cast:
        return eval(n.a);
      case ExprKind::Unary: {
        const Opnd aop = eval(n.a);
        const uint8_t rd = aop.owned ? aop.reg : allocTemp();
        switch (n.uop) {
          case UnOp::Neg:
            a_.emitR(Op::SUB, rd, REG_ZERO, aop.reg);
            break;
          case UnOp::Not:
            a_.emitI(Op::XORI, rd, aop.reg, -1);
            break;
          case UnOp::ToFloat:
            a_.emitR(Op::FCVT_S_W, rd, aop.reg, 0);
            break;
          case UnOp::ToInt:
            a_.emitR(Op::FCVT_W_S, rd, aop.reg, 0);
            break;
          case UnOp::Sqrt:
            a_.emitR(Op::FSQRT_S, rd, aop.reg, 0);
            break;
        }
        if (!aop.owned)
            return Opnd{rd, true};
        return Opnd{rd, true};
      }
      case ExprKind::Binary:
        return evalBinary(n);
      case ExprKind::Load: {
        const Address addr = genAddress(n.a);
        const uint8_t rd = addr.base.owned
                               ? addr.base.reg
                               : allocTemp(purecap() && isPtrArray(n.a));
        if (isPtrArray(n.a)) {
            // Loading a pointer from a stack pointer-array: a whole
            // capability in purecap mode, a plain word otherwise.
            a_.emitI(purecap() ? Op::CLC : Op::LW, rd, addr.base.reg,
                     addr.imm);
            markCap(rd);
        } else {
            Op op = Op::LW;
            switch (ir_.expr(n.a).type.elem) {
              case Scalar::U8: op = Op::LBU; break;
              case Scalar::I8: op = Op::LB; break;
              case Scalar::U16: op = Op::LHU; break;
              case Scalar::I16: op = Op::LH; break;
              default: op = Op::LW; break;
            }
            a_.emitI(op, rd, addr.base.reg, addr.imm);
        }
        if (!addr.base.owned)
            return Opnd{rd, true};
        return Opnd{rd, true};
      }
      case ExprKind::Select:
        return evalSelect(n);
    }
    panic("bad expression kind");
}

Opnd
CodeGen::evalBinary(const ExprNode &n)
{
    const ExprNode &na = ir_.expr(n.a);
    const ExprNode &nb = ir_.expr(n.b);
    const VType &ta = na.type;
    const bool is_float = ta.kind == VType::Float;
    const bool is_signed = ta.kind == VType::Int && !ta.isPtr();

    // Pointer arithmetic: scale the index by the element size.
    if (ta.isPtr() && (n.bop == BinOp::Add || n.bop == BinOp::Sub)) {
        const unsigned stride = strideOf(n.a);
        const Opnd base = eval(n.a);
        if (nb.kind == ExprKind::ConstInt) {
            const int64_t bytes =
                static_cast<int64_t>(nb.iconst) * stride *
                (n.bop == BinOp::Sub ? -1 : 1);
            const uint8_t rd = allocTemp(purecap());
            if (fitsImm12(bytes)) {
                ptrAddImm(rd, base.reg, static_cast<int32_t>(bytes));
            } else {
                loadConst(REG_SCRATCH, static_cast<uint32_t>(bytes));
                ptrAdd(rd, base.reg, REG_SCRATCH);
            }
            release(base);
            markCap(rd);
            return Opnd{rd, true};
        }
        Opnd idx = eval(n.b);
        uint8_t scaled = idx.reg;
        Opnd scaled_tmp{0, false};
        if (stride > 1) {
            scaled_tmp.reg = idx.owned ? idx.reg : allocTemp();
            scaled_tmp.owned = true;
            a_.emitI(Op::SLLI, scaled_tmp.reg, idx.reg,
                     static_cast<int32_t>(support::ceilLog2(stride)));
            scaled = scaled_tmp.reg;
            if (idx.owned)
                idx.owned = false; // ownership transferred
        }
        if (n.bop == BinOp::Sub) {
            const uint8_t neg = scaled_tmp.owned ? scaled : allocTemp();
            a_.emitR(Op::SUB, neg, REG_ZERO, scaled);
            scaled = neg;
            if (!scaled_tmp.owned)
                scaled_tmp = Opnd{neg, true};
        }
        const uint8_t rd = allocTemp(purecap());
        ptrAdd(rd, base.reg, scaled);
        release(base);
        release(idx);
        release(scaled_tmp);
        markCap(rd);
        return Opnd{rd, true};
    }

    // Immediate forms for common integer patterns.
    if (!is_float && nb.kind == ExprKind::ConstInt) {
        const int32_t c = nb.iconst;
        const Opnd aop = eval(n.a);
        const auto imm_result = [&](Op op, int32_t imm) {
            const uint8_t rd = aop.owned ? aop.reg : allocTemp();
            a_.emitI(op, rd, aop.reg, imm);
            return Opnd{rd, true};
        };
        switch (n.bop) {
          case BinOp::Add:
            if (fitsImm12(c))
                return imm_result(Op::ADDI, c);
            break;
          case BinOp::Sub:
            if (fitsImm12(-static_cast<int64_t>(c)))
                return imm_result(Op::ADDI, -c);
            break;
          case BinOp::And:
            if (fitsImm12(c))
                return imm_result(Op::ANDI, c);
            break;
          case BinOp::Or:
            if (fitsImm12(c))
                return imm_result(Op::ORI, c);
            break;
          case BinOp::Xor:
            if (fitsImm12(c))
                return imm_result(Op::XORI, c);
            break;
          case BinOp::Shl:
            return imm_result(Op::SLLI, c & 31);
          case BinOp::Shr:
            return imm_result(is_signed ? Op::SRAI : Op::SRLI, c & 31);
          case BinOp::Mul:
            if (c > 0 && support::isPowerOfTwo(static_cast<uint32_t>(c)))
                return imm_result(
                    Op::SLLI,
                    static_cast<int32_t>(support::ceilLog2(
                        static_cast<uint32_t>(c))));
            break;
          case BinOp::Div:
            if (!is_signed && c > 0 &&
                support::isPowerOfTwo(static_cast<uint32_t>(c)))
                return imm_result(
                    Op::SRLI,
                    static_cast<int32_t>(support::ceilLog2(
                        static_cast<uint32_t>(c))));
            break;
          case BinOp::Rem:
            if (!is_signed && c > 0 &&
                support::isPowerOfTwo(static_cast<uint32_t>(c)) &&
                fitsImm12(c - 1))
                return imm_result(Op::ANDI, c - 1);
            break;
          case BinOp::Lt:
            if (fitsImm12(c))
                return imm_result(is_signed ? Op::SLTI : Op::SLTIU, c);
            break;
          default:
            break;
        }
        release(aop);
        // Fall through to the general register-register form below by
        // re-evaluating (cheap: operands are pure).
    }

    const Opnd aop = eval(n.a);
    const Opnd bop = eval(n.b);
    const uint8_t rd =
        aop.owned ? aop.reg : (bop.owned ? bop.reg : allocTemp());

    if (is_float) {
        switch (n.bop) {
          case BinOp::Add: a_.emitR(Op::FADD_S, rd, aop.reg, bop.reg); break;
          case BinOp::Sub: a_.emitR(Op::FSUB_S, rd, aop.reg, bop.reg); break;
          case BinOp::Mul: a_.emitR(Op::FMUL_S, rd, aop.reg, bop.reg); break;
          case BinOp::Div: a_.emitR(Op::FDIV_S, rd, aop.reg, bop.reg); break;
          case BinOp::Min: a_.emitR(Op::FMIN_S, rd, aop.reg, bop.reg); break;
          case BinOp::Max: a_.emitR(Op::FMAX_S, rd, aop.reg, bop.reg); break;
          case BinOp::Lt: a_.emitR(Op::FLT_S, rd, aop.reg, bop.reg); break;
          case BinOp::Le: a_.emitR(Op::FLE_S, rd, aop.reg, bop.reg); break;
          case BinOp::Gt: a_.emitR(Op::FLT_S, rd, bop.reg, aop.reg); break;
          case BinOp::Ge: a_.emitR(Op::FLE_S, rd, bop.reg, aop.reg); break;
          case BinOp::Eq: a_.emitR(Op::FEQ_S, rd, aop.reg, bop.reg); break;
          case BinOp::Ne:
            a_.emitR(Op::FEQ_S, rd, aop.reg, bop.reg);
            a_.emitI(Op::XORI, rd, rd, 1);
            break;
          default:
            panic("unsupported float op");
        }
    } else {
        switch (n.bop) {
          case BinOp::Add: a_.emitR(Op::ADD, rd, aop.reg, bop.reg); break;
          case BinOp::Sub: a_.emitR(Op::SUB, rd, aop.reg, bop.reg); break;
          case BinOp::Mul: a_.emitR(Op::MUL, rd, aop.reg, bop.reg); break;
          case BinOp::Div:
            a_.emitR(is_signed ? Op::DIV : Op::DIVU, rd, aop.reg, bop.reg);
            break;
          case BinOp::Rem:
            a_.emitR(is_signed ? Op::REM : Op::REMU, rd, aop.reg, bop.reg);
            break;
          case BinOp::And: a_.emitR(Op::AND, rd, aop.reg, bop.reg); break;
          case BinOp::Or: a_.emitR(Op::OR, rd, aop.reg, bop.reg); break;
          case BinOp::Xor: a_.emitR(Op::XOR, rd, aop.reg, bop.reg); break;
          case BinOp::Shl: a_.emitR(Op::SLL, rd, aop.reg, bop.reg); break;
          case BinOp::Shr:
            a_.emitR(is_signed ? Op::SRA : Op::SRL, rd, aop.reg, bop.reg);
            break;
          case BinOp::Lt:
            a_.emitR(is_signed ? Op::SLT : Op::SLTU, rd, aop.reg, bop.reg);
            break;
          case BinOp::Gt:
            a_.emitR(is_signed ? Op::SLT : Op::SLTU, rd, bop.reg, aop.reg);
            break;
          case BinOp::Le:
            a_.emitR(is_signed ? Op::SLT : Op::SLTU, rd, bop.reg, aop.reg);
            a_.emitI(Op::XORI, rd, rd, 1);
            break;
          case BinOp::Ge:
            a_.emitR(is_signed ? Op::SLT : Op::SLTU, rd, aop.reg, bop.reg);
            a_.emitI(Op::XORI, rd, rd, 1);
            break;
          case BinOp::Eq:
            a_.emitR(Op::SUB, rd, aop.reg, bop.reg);
            a_.emitI(Op::SLTIU, rd, rd, 1);
            break;
          case BinOp::Ne:
            a_.emitR(Op::SUB, rd, aop.reg, bop.reg);
            a_.emitR(Op::SLTU, rd, REG_ZERO, rd);
            break;
          case BinOp::Min:
          case BinOp::Max: {
            // Branchless: rd = ((a ^ b) & -(cond)) ^ (Min ? a : b) with
            // cond chosen so the result picks the right operand.
            const Op slt = is_signed ? Op::SLT : Op::SLTU;
            if (n.bop == BinOp::Min)
                a_.emitR(slt, REG_SCRATCH, bop.reg, aop.reg); // b < a
            else
                a_.emitR(slt, REG_SCRATCH, aop.reg, bop.reg); // a < b
            a_.emitR(Op::SUB, REG_SCRATCH, REG_ZERO, REG_SCRATCH);
            const uint8_t tmp = REG_SCRATCH2;
            a_.emitR(Op::XOR, tmp, aop.reg, bop.reg);
            a_.emitR(Op::AND, tmp, tmp, REG_SCRATCH);
            a_.emitR(Op::XOR, rd, tmp, aop.reg);
            break;
          }
        }
    }

    // Free whichever source operand did not become the destination.
    if (aop.owned && aop.reg != rd)
        regBusy_[aop.reg] = false;
    if (bop.owned && bop.reg != rd)
        regBusy_[bop.reg] = false;
    return Opnd{rd, true};
}

Opnd
CodeGen::evalSelect(const ExprNode &n)
{
    const bool arm_is_cap = purecap() && n.type.isPtr();
    const Opnd cond = eval(n.a);
    const uint8_t rd = allocTemp(arm_is_cap);

    const Label l_true = a_.newLabel();
    const Label l_end = a_.newLabel();

    a_.emit(Op::SIMT_PUSH, 0, 0, 0);
    a_.emitBranch(Op::BNE, cond.reg, REG_ZERO, l_true);
    {
        const Opnd v = eval(n.c);
        move(rd, v.reg, arm_is_cap);
        release(v);
    }
    a_.emitJump(REG_ZERO, l_end);
    a_.place(l_true);
    {
        const Opnd v = eval(n.b);
        move(rd, v.reg, arm_is_cap);
        release(v);
    }
    a_.place(l_end);
    a_.emit(Op::SIMT_POP, 0, 0, 0);

    release(cond);
    if (arm_is_cap)
        markCap(rd);
    return Opnd{rd, true};
}

void
CodeGen::emitBoundsCheck(int ptr_node, int idx_node, uint8_t idx_reg)
{
    const PtrRoot root = ptrRoot(ptr_node);
    const ExprNode *idx =
        idx_node >= 0 ? &ir_.expr(idx_node) : nullptr;

    // Constant indices arrive with idx_reg == x0; materialise on demand.
    const auto idx_in_reg = [&]() -> uint8_t {
        if (idx != nullptr && idx->kind == ExprKind::ConstInt &&
            idx_reg == REG_ZERO && idx->iconst != 0) {
            loadConst(REG_SCRATCH, static_cast<uint32_t>(idx->iconst));
            return REG_SCRATCH;
        }
        return idx_reg;
    };

    switch (root.kind) {
      case PtrRoot::Param: {
        // Slice check: index < length (length register loaded in the
        // prologue from the fat-pointer argument).
        const uint8_t len = paramLenReg_[root.index];
        trapUsed_ = true;
        if (idx == nullptr) {
            // p[0]: trap iff the slice is empty.
            a_.emitBranch(Op::BEQ, len, REG_ZERO, trapLabel_);
        } else {
            // Canonical rustc lowering: the comparison result is a live
            // value feeding the conditional panic branch.
            a_.emitR(Op::SLTU, REG_SCRATCH2, idx_in_reg(), len);
            a_.emitBranch(Op::BEQ, REG_SCRATCH2, REG_ZERO, trapLabel_);
        }
        return;
      }
      case PtrRoot::SharedArr:
      case PtrRoot::LocalArr: {
        // Array with a compile-time length: constant indices in range
        // are proven safe at compile time (as in Rust).
        const unsigned count = root.kind == PtrRoot::SharedArr
                                   ? ir_.shared[root.index].count
                                   : ir_.locals[root.index].count;
        if (idx != nullptr && idx->kind == ExprKind::ConstInt &&
            idx->iconst >= 0 &&
            static_cast<unsigned>(idx->iconst) < count)
            return;
        if (idx == nullptr)
            return; // p[0] of a non-empty array
        trapUsed_ = true;
        const uint8_t ireg = idx_in_reg();
        if (fitsImm12(count)) {
            a_.emitI(Op::SLTIU, REG_SCRATCH, ireg,
                     static_cast<int32_t>(count));
        } else {
            // The constant count does not fit the immediate: compare in
            // two steps via the second scratch register.
            loadConst(REG_SCRATCH2, count);
            a_.emitR(Op::SLTU, REG_SCRATCH, ireg, REG_SCRATCH2);
        }
        a_.emitBranch(Op::BEQ, REG_SCRATCH, REG_ZERO, trapLabel_);
        return;
      }
      case PtrRoot::Unknown:
        // The access cannot be related to a slice: the Rust port would
        // need an unsafe block here (Section 4.7 discussion).
        ++unchecked_;
        return;
    }
}

CodeGen::Address
CodeGen::genAddress(int ptr_node)
{
    const ExprNode &n = ir_.expr(ptr_node);

    // Split off the innermost index: base + idx.
    int base_node = ptr_node;
    int idx_node = -1;
    if (n.kind == ExprKind::Binary && n.bop == BinOp::Add &&
        ir_.expr(n.a).type.isPtr()) {
        base_node = n.a;
        idx_node = n.b;
    }

    const unsigned stride = strideOf(ptr_node);

    // Constant index folds into the access immediate.
    if (idx_node >= 0 && ir_.expr(idx_node).kind == ExprKind::ConstInt) {
        const int64_t bytes =
            static_cast<int64_t>(ir_.expr(idx_node).iconst) * stride;
        if (fitsImm12(bytes)) {
            if (softBounds())
                emitBoundsCheck(base_node, idx_node, REG_ZERO);
            Address addr;
            addr.base = eval(base_node);
            addr.imm = static_cast<int32_t>(bytes);
            return addr;
        }
    }

    if (idx_node < 0) {
        if (softBounds())
            emitBoundsCheck(base_node, -1, REG_ZERO);
        Address addr;
        addr.base = eval(base_node);
        return addr;
    }

    Opnd idx = eval(idx_node);
    if (softBounds())
        emitBoundsCheck(base_node, idx_node, idx.reg);

    uint8_t scaled = idx.reg;
    Opnd scaled_tmp{0, false};
    if (stride > 1) {
        scaled_tmp.reg = idx.owned ? idx.reg : allocTemp();
        scaled_tmp.owned = true;
        a_.emitI(Op::SLLI, scaled_tmp.reg, idx.reg,
                 static_cast<int32_t>(support::ceilLog2(stride)));
        scaled = scaled_tmp.reg;
        idx.owned = false;
    }

    const Opnd base = eval(base_node);
    const uint8_t rd = allocTemp(purecap());
    ptrAdd(rd, base.reg, scaled);
    release(base);
    release(idx);
    release(scaled_tmp);

    Address addr;
    addr.base = Opnd{rd, true};
    return addr;
}

void
CodeGen::genStore(const Stmt &s)
{
    const Address addr = genAddress(s.ptr);
    const Opnd val = eval(s.expr);

    if (isPtrArray(s.ptr)) {
        a_.emit(purecap() ? Op::CSC : Op::SW, 0, addr.base.reg, val.reg,
                addr.imm);
    } else {
        Op op = Op::SW;
        switch (ir_.expr(s.ptr).type.elem) {
          case Scalar::U8:
          case Scalar::I8:
            op = Op::SB;
            break;
          case Scalar::U16:
          case Scalar::I16:
            op = Op::SH;
            break;
          default:
            op = Op::SW;
            break;
        }
        a_.emit(op, 0, addr.base.reg, val.reg, addr.imm);
    }
    release(addr.base);
    release(val);
}

void
CodeGen::genAtomic(const Stmt &s)
{
    Address addr = genAddress(s.ptr);
    // AMO instructions have no immediate: fold any residue into the base.
    if (addr.imm != 0) {
        const uint8_t t =
            addr.base.owned ? addr.base.reg : allocTemp(purecap());
        ptrAddImm(t, addr.base.reg, addr.imm);
        addr.base = Opnd{t, true};
        addr.imm = 0;
    }
    const Opnd val = eval(s.expr);
    const bool is_signed =
        scalarSigned(ir_.expr(s.ptr).type.elem);
    Op op = Op::AMOADD_W;
    switch (s.atomic) {
      case AtomicOp::Add: op = Op::AMOADD_W; break;
      case AtomicOp::Min: op = is_signed ? Op::AMOMIN_W : Op::AMOMINU_W;
        break;
      case AtomicOp::Max: op = is_signed ? Op::AMOMAX_W : Op::AMOMAXU_W;
        break;
      case AtomicOp::And: op = Op::AMOAND_W; break;
      case AtomicOp::Or: op = Op::AMOOR_W; break;
      case AtomicOp::Xor: op = Op::AMOXOR_W; break;
    }
    a_.emit(op, 0, addr.base.reg, val.reg, 0);
    release(addr.base);
    release(val);
}

void
CodeGen::genStmt(const Stmt &s)
{
    switch (s.kind) {
      case StmtKind::Assign: {
        const Opnd v = eval(s.expr);
        const bool is_cap = purecap() && ir_.vars[s.var].type.isPtr();
        panic_if(varReg_[s.var] < 0, "assignment to out-of-scope variable");
        const uint8_t rd = static_cast<uint8_t>(varReg_[s.var]);
        move(rd, v.reg, is_cap);
        if (is_cap)
            markCap(rd);
        release(v);
        break;
      }
      case StmtKind::Store:
        genStore(s);
        break;
      case StmtKind::AtomicStmt:
        genAtomic(s);
        break;
      case StmtKind::Barrier:
        a_.emit(Op::SIMT_BARRIER, 0, 0, 0);
        break;
      case StmtKind::If: {
        const Opnd cond = eval(s.expr);
        const Label l_else = a_.newLabel();
        const Label l_end = a_.newLabel();
        a_.emit(Op::SIMT_PUSH, 0, 0, 0);
        a_.emitBranch(Op::BEQ, cond.reg, REG_ZERO, l_else);
        release(cond);
        enterScope(s.bodyVars);
        genBlock(s.body);
        leaveScope(s.bodyVars);
        if (!s.elseBody.empty())
            a_.emitJump(REG_ZERO, l_end);
        a_.place(l_else);
        enterScope(s.elseVars);
        genBlock(s.elseBody);
        leaveScope(s.elseVars);
        a_.place(l_end);
        a_.emit(Op::SIMT_POP, 0, 0, 0);
        break;
      }
      case StmtKind::While: {
        const Label l_head = a_.newLabel();
        const Label l_end = a_.newLabel();
        a_.emit(Op::SIMT_PUSH, 0, 0, 0);
        a_.place(l_head);
        const Opnd cond = eval(s.expr);
        a_.emitBranch(Op::BEQ, cond.reg, REG_ZERO, l_end);
        release(cond);
        enterScope(s.bodyVars);
        genBlock(s.body);
        leaveScope(s.bodyVars);
        a_.emitJump(REG_ZERO, l_head);
        a_.place(l_end);
        a_.emit(Op::SIMT_POP, 0, 0, 0);
        break;
      }
    }
}

void
CodeGen::genBlock(const std::vector<Stmt> &stmts)
{
    for (const Stmt &s : stmts)
        genStmt(s);
}

void
CodeGen::prologue()
{
    // Thread identity.
    a_.emitI(Op::CSRRS, REG_HARTID, 0, isa::CSR_HARTID);
    a_.emitI(Op::ANDI, REG_TIDX, REG_HARTID,
             static_cast<int32_t>(opt_.blockDim - 1));

    const unsigned log2_bd = support::ceilLog2(opt_.blockDim);
    const unsigned log2_stack = support::ceilLog2(opt_.stackBytes);

    if (purecap()) {
        // Argument block capability.
        a_.emitI(Op::CSPECIALRW, REG_ARG, 0, isa::SCR_ARG);
        markCap(REG_ARG);
        // Per-thread stack pointer: one region-wide stack capability with
        // a per-thread address (NoCL sets the bounds of the stack once).
        // Keeping the bounds uniform across the warp is what makes the
        // stack capability's metadata compressible (Section 3.2); the
        // addresses are affine (stride = stackBytes) so the data half
        // compresses too.
        a_.emitI(Op::CSPECIALRW, REG_SP, 0, isa::SCR_STC);
        a_.emitI(Op::SLLI, REG_SCRATCH, REG_HARTID,
                 static_cast<int32_t>(log2_stack));
        a_.emitR(Op::CINCOFFSET, REG_SP, REG_SP, REG_SCRATCH);
        markCap(REG_SP);
    } else {
        loadConst(REG_ARG, kArgBlockAddr);
        const uint32_t stack_base =
            simt::kDramBase + simt::kDramSize -
            opt_.numThreads * opt_.stackBytes;
        a_.emitI(Op::SLLI, REG_SCRATCH, REG_HARTID,
                 static_cast<int32_t>(log2_stack));
        loadConst(REG_SP, stack_base);
        a_.emitR(Op::ADD, REG_SP, REG_SP, REG_SCRATCH);
    }

    // Parameters.
    paramReg_.resize(ir_.params.size());
    paramLenReg_.assign(ir_.params.size(), 0);
    unsigned offset = 0;
    for (size_t p = 0; p < ir_.params.size(); ++p) {
        const bool is_ptr = ir_.params[p].type.isPtr();
        paramReg_[p] = allocDedicated(is_ptr && purecap());
        if (is_ptr && purecap()) {
            offset = static_cast<unsigned>(support::roundUp(offset, 8));
            a_.emitI(Op::CLC, paramReg_[p], REG_ARG,
                     static_cast<int32_t>(offset));
            markCap(paramReg_[p]);
            offset += 8;
        } else if (is_ptr && softBounds()) {
            a_.emitI(Op::LW, paramReg_[p], REG_ARG,
                     static_cast<int32_t>(offset));
            paramLenReg_[p] = allocDedicated();
            a_.emitI(Op::LW, paramLenReg_[p], REG_ARG,
                     static_cast<int32_t>(offset + 4));
            offset += 8;
        } else {
            a_.emitI(Op::LW, paramReg_[p], REG_ARG,
                     static_cast<int32_t>(offset));
            offset += 4;
        }
    }

    // rd = rs & (slotsPerSm_ - 1): a global block slot reduced to the
    // slot within its SM.
    const auto localSlot = [&](uint8_t rd, uint8_t rs) {
        if (fitsImm12(slotsPerSm_ - 1)) {
            a_.emitI(Op::ANDI, rd, rs,
                     static_cast<int32_t>(slotsPerSm_ - 1));
        } else {
            const uint8_t mask = rd == rs ? REG_SCRATCH : rd;
            loadConst(mask, slotsPerSm_ - 1);
            a_.emitR(Op::AND, rd, rs, mask);
        }
    };
    const bool identity = chunk_ == slotsPerSm_;

    // Dispatch state: blockIdx variable and the grid size. The initial
    // blockIdx starts as this thread's global block slot.
    blockIdxReg_ = allocDedicated();
    a_.emitI(Op::SRLI, blockIdxReg_, REG_HARTID,
             static_cast<int32_t>(log2_bd));
    gridDimReg_ = allocDedicated();
    loadConst(gridDimReg_, opt_.gridDim);

    // Chunked placement, without branches (a SIMT branch would need a
    // push/pop): blockIdx = k * chunk + j, plus gridDim when j >= chunk
    // so that the slot exits at once.
    if (!identity) {
        localSlot(REG_SCRATCH2, blockIdxReg_); // j
        a_.emitI(Op::SRLI, blockIdxReg_, blockIdxReg_,
                 static_cast<int32_t>(support::ceilLog2(slotsPerSm_)));
        if (support::isPowerOfTwo(chunk_)) {
            a_.emitI(Op::SLLI, blockIdxReg_, blockIdxReg_,
                     static_cast<int32_t>(support::ceilLog2(chunk_)));
        } else {
            loadConst(REG_SCRATCH, chunk_);
            a_.emitR(Op::MUL, blockIdxReg_, blockIdxReg_, REG_SCRATCH);
        }
        a_.emitR(Op::ADD, blockIdxReg_, blockIdxReg_, REG_SCRATCH2);
        if (fitsImm12(chunk_)) {
            a_.emitI(Op::SLTIU, REG_SCRATCH, REG_SCRATCH2,
                     static_cast<int32_t>(chunk_));
        } else {
            loadConst(REG_SCRATCH, chunk_);
            a_.emitR(Op::SLTU, REG_SCRATCH, REG_SCRATCH2, REG_SCRATCH);
        }
        // (j < chunk) - 1 is 0 or all ones: mask gridDim with it.
        a_.emitI(Op::ADDI, REG_SCRATCH, REG_SCRATCH, -1);
        a_.emitR(Op::AND, REG_SCRATCH, REG_SCRATCH, gridDimReg_);
        a_.emitR(Op::ADD, blockIdxReg_, blockIdxReg_, REG_SCRATCH);
    }

    // Shared array base pointers: each resident block slot gets its own
    // partition of the scratchpad so concurrent blocks do not alias.
    sharedReg_.resize(ir_.shared.size());
    for (size_t s = 0; s < ir_.shared.size(); ++s) {
        sharedReg_[s] = allocDedicated(purecap());
        const uint32_t addr = simt::kSharedBase + ir_.shared[s].byteOffset;
        const unsigned bytes =
            ir_.shared[s].count * scalarBytes(ir_.shared[s].elem);

        // Slot offset: localSlot * sharedBytes. With several SMs each
        // SM has a private scratchpad, so the partition is the slot
        // *within this SM*. Under the identity placement blockIdx still
        // holds the global slot; otherwise recompute it from the hart.
        if (opt_.numSms > 1) {
            if (identity) {
                localSlot(REG_SCRATCH2, blockIdxReg_);
            } else {
                a_.emitI(Op::SRLI, REG_SCRATCH2, REG_HARTID,
                         static_cast<int32_t>(log2_bd));
                localSlot(REG_SCRATCH2, REG_SCRATCH2);
            }
            if (support::isPowerOfTwo(ir_.sharedBytes)) {
                a_.emitI(Op::SLLI, REG_SCRATCH2, REG_SCRATCH2,
                         static_cast<int32_t>(
                             support::ceilLog2(ir_.sharedBytes)));
            } else {
                loadConst(REG_SCRATCH, ir_.sharedBytes);
                a_.emitR(Op::MUL, REG_SCRATCH2, REG_SCRATCH2,
                         REG_SCRATCH);
            }
        } else if (support::isPowerOfTwo(ir_.sharedBytes)) {
            a_.emitI(Op::SLLI, REG_SCRATCH2, blockIdxReg_,
                     static_cast<int32_t>(
                         support::ceilLog2(ir_.sharedBytes)));
        } else {
            loadConst(REG_SCRATCH2, ir_.sharedBytes);
            a_.emitR(Op::MUL, REG_SCRATCH2, blockIdxReg_, REG_SCRATCH2);
        }
        loadConst(REG_SCRATCH, addr);
        a_.emitR(Op::ADD, REG_SCRATCH, REG_SCRATCH, REG_SCRATCH2);

        if (purecap()) {
            a_.emitI(Op::CSPECIALRW, REG_SCRATCH2, 0, isa::SCR_DDC);
            markCap(REG_SCRATCH2);
            a_.emitR(Op::CSETADDR, sharedReg_[s], REG_SCRATCH2,
                     REG_SCRATCH);
            if (fitsImm12(bytes)) {
                a_.emitI(Op::CSETBOUNDSIMM, sharedReg_[s], sharedReg_[s],
                         static_cast<int32_t>(bytes));
            } else {
                loadConst(REG_SCRATCH, bytes);
                a_.emitR(Op::CSETBOUNDS, sharedReg_[s], sharedReg_[s],
                         REG_SCRATCH);
            }
            markCap(sharedReg_[s]);
        } else {
            a_.emitI(Op::ADDI, sharedReg_[s], REG_SCRATCH, 0);
        }
    }

    // Kernel variables: block-scoped variables get their registers when
    // their scope is entered; only top-level variables are allocated here.
    varReg_.assign(ir_.vars.size(), -1);
    std::vector<bool> scoped(ir_.vars.size(), false);
    const std::function<void(const std::vector<Stmt> &)> mark =
        [&](const std::vector<Stmt> &stmts) {
            for (const Stmt &s : stmts) {
                for (int v : s.bodyVars)
                    scoped[v] = true;
                for (int v : s.elseVars)
                    scoped[v] = true;
                mark(s.body);
                mark(s.elseBody);
            }
        };
    mark(ir_.top);
    for (size_t v = 0; v < ir_.vars.size(); ++v) {
        if (!scoped[v])
            varReg_[v] = allocDedicated(purecap() &&
                                        ir_.vars[v].type.isPtr());
    }
}

void
CodeGen::dispatchLoopAndBody()
{
    const unsigned stride = opt_.numSms * chunk_;
    const Label l_head = a_.newLabel();
    const Label l_end = a_.newLabel();

    a_.emit(Op::SIMT_PUSH, 0, 0, 0);
    a_.place(l_head);
    a_.emitBranch(Op::BGE, blockIdxReg_, gridDimReg_, l_end);

    genBlock(ir_.top);

    // When shared memory is used, virtual blocks reusing the same block
    // slot must not race on it.
    if (!ir_.shared.empty())
        a_.emit(Op::SIMT_BARRIER, 0, 0, 0);

    a_.emitI(Op::ADDI, blockIdxReg_, blockIdxReg_,
             static_cast<int32_t>(stride));
    a_.emitJump(REG_ZERO, l_head);
    a_.place(l_end);
    a_.emit(Op::SIMT_POP, 0, 0, 0);
    a_.emit(Op::SIMT_HALT, 0, 0, 0);

    if (trapUsed_) {
        a_.place(trapLabel_);
        a_.emit(Op::SIMT_TRAP, 0, 0, 0);
    }
}

CompiledKernel
CodeGen::run()
{
    trapLabel_ = a_.newLabel();
    prologue();
    dispatchLoopAndBody();

    CompiledKernel out;
    out.name = ir_.name;
    out.code = a_.finalize();
    out.sharedBytes = ir_.sharedBytes;
    out.localBytes = ir_.localBytes;
    fatal_if(ir_.localBytes > opt_.stackBytes,
             "kernel %s: local arrays (%u B) exceed the stack frame",
             ir_.name.c_str(), ir_.localBytes);

    // Argument-block layout (must match the prologue loads above).
    unsigned offset = 0;
    for (const auto &p : ir_.params) {
        ParamSlot slot;
        slot.isPtr = p.type.isPtr();
        slot.elemBytes = slot.isPtr ? scalarBytes(p.type.elem) : 4;
        if (slot.isPtr && purecap()) {
            offset = static_cast<unsigned>(support::roundUp(offset, 8));
            slot.offset = offset;
            offset += 8;
        } else if (slot.isPtr && softBounds()) {
            slot.offset = offset;
            offset += 8;
        } else {
            slot.offset = offset;
            offset += 4;
        }
        out.params.push_back(slot);
    }
    out.paramBlockBytes =
        static_cast<unsigned>(support::roundUp(offset, 8));

    out.capRegMask = capRegMask_;
    out.capRegCount = static_cast<unsigned>(std::popcount(capRegMask_));
    out.regsUsed = regsHighWater_ + 1;
    out.uncheckedAccesses = unchecked_;

    std::ostringstream listing;
    for (size_t i = 0; i < a_.instrs().size(); ++i) {
        listing << i * 4 << ":\t"
                << isa::toString(a_.instrs()[i], purecap()) << "\n";
    }
    out.listing = listing.str();
    return out;
}

} // namespace

CompiledKernel
compile(const KernelIr &ir, const CompileOptions &opt)
{
    // Simplify the IR before code generation.
    KernelIr folded = ir;
    foldConstants(folded);

    // The split between dedicated (variables, parameters) and temporary
    // (expression) registers is chosen by trying the default first and
    // then sweeping the boundary: most kernels fit immediately,
    // register-hungry ones land on a workable split.
    bool dedicated_pressure = false;
    bool temp_pressure = false;
    for (const uint8_t floor :
         {25, 26, 27, 28, 29, 24, 23, 22, 21, 20, 19, 18}) {
        try {
            CodeGen cg(folded, opt, floor);
            CompiledKernel out = cg.run();
            // Identity of the *source* IR (not the folded copy): it must
            // match the fingerprint nocl's compilation cache computes.
            out.fingerprint = irFingerprint(ir);
            return out;
        } catch (const RegPressure &p) {
            dedicated_pressure |= p.dedicated;
            temp_pressure |= !p.dedicated;
        }
    }
    fatal("kernel %s: register allocation failed (%s%s pressure)",
          ir.name.c_str(), dedicated_pressure ? "dedicated " : "",
          temp_pressure ? "temporary" : "");
}

namespace
{

/** FNV-1a accumulator used by irFingerprint. */
class Fnv
{
  public:
    void
    word(uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (w >> (i * 8)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    text(const std::string &s)
    {
        word(s.size());
        for (const char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
hashVType(Fnv &h, const VType &t)
{
    h.word(static_cast<uint64_t>(t.kind) |
           (static_cast<uint64_t>(t.elem) << 8) |
           (static_cast<uint64_t>(t.space) << 16));
}

void
hashStmts(Fnv &h, const std::vector<Stmt> &stmts)
{
    h.word(stmts.size());
    for (const Stmt &s : stmts) {
        h.word(static_cast<uint64_t>(s.kind) |
               (static_cast<uint64_t>(s.atomic) << 8));
        h.word(static_cast<uint64_t>(static_cast<uint32_t>(s.var)) |
               (static_cast<uint64_t>(static_cast<uint32_t>(s.expr))
                << 32));
        h.word(static_cast<uint32_t>(s.ptr));
        h.word(s.bodyVars.size());
        for (const int v : s.bodyVars)
            h.word(static_cast<uint32_t>(v));
        h.word(s.elseVars.size());
        for (const int v : s.elseVars)
            h.word(static_cast<uint32_t>(v));
        hashStmts(h, s.body);
        hashStmts(h, s.elseBody);
    }
}

} // namespace

uint64_t
irFingerprint(const KernelIr &ir)
{
    Fnv h;
    h.text(ir.name);
    h.word(ir.exprs.size());
    for (const ExprNode &e : ir.exprs) {
        h.word(static_cast<uint64_t>(e.kind) |
               (static_cast<uint64_t>(e.bop) << 8) |
               (static_cast<uint64_t>(e.uop) << 16) |
               (static_cast<uint64_t>(e.builtin) << 24));
        hashVType(h, e.type);
        h.word(static_cast<uint64_t>(static_cast<uint32_t>(e.a)) |
               (static_cast<uint64_t>(static_cast<uint32_t>(e.b)) << 32));
        h.word(static_cast<uint64_t>(static_cast<uint32_t>(e.c)) |
               (static_cast<uint64_t>(static_cast<uint32_t>(e.index))
                << 32));
        h.word(static_cast<uint32_t>(e.iconst));
        uint32_t fbits;
        __builtin_memcpy(&fbits, &e.fconst, 4);
        h.word(fbits);
    }
    h.word(ir.params.size());
    for (const ParamInfo &p : ir.params) {
        h.text(p.name);
        hashVType(h, p.type);
    }
    h.word(ir.vars.size());
    for (const VarInfo &v : ir.vars) {
        hashVType(h, v.type);
        h.word(static_cast<uint32_t>(v.init));
    }
    h.word(ir.shared.size());
    for (const SharedInfo &s : ir.shared) {
        h.text(s.name);
        h.word(static_cast<uint64_t>(s.elem) |
               (static_cast<uint64_t>(s.count) << 8));
        h.word(s.byteOffset);
    }
    h.word(ir.locals.size());
    for (const LocalInfo &l : ir.locals) {
        h.word(static_cast<uint64_t>(l.elem) |
               (static_cast<uint64_t>(l.isPtrArray ? 1 : 0) << 8) |
               (static_cast<uint64_t>(l.count) << 16));
        h.word(l.byteOffset);
    }
    h.word(static_cast<uint64_t>(ir.sharedBytes) |
           (static_cast<uint64_t>(ir.localBytes) << 32));
    hashStmts(h, ir.top);
    return h.value();
}

/** Address of the kernel-argument block (shared with the runtime). */
uint32_t
argBlockAddress()
{
    return kArgBlockAddr;
}

uint32_t
stackRegionBase(const CompileOptions &opt)
{
    return simt::kDramBase + simt::kDramSize -
           opt.numThreads * opt.stackBytes;
}

} // namespace kc
