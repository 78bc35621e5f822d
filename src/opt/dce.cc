#include "opt/dce.h"

#include <algorithm>

namespace lpo::opt {

unsigned
removeDeadInstructions(ir::Function &fn)
{
    // One entry per instruction, sorted by address so an operand finds
    // its definition by binary search; count every use once.
    struct Entry
    {
        const ir::Instruction *inst;
        unsigned uses;
        bool dead;
    };
    size_t count = 0;
    for (const auto &bb : fn.blocks())
        count += bb->size();
    std::vector<Entry> table;
    table.reserve(count);
    for (const auto &bb : fn.blocks())
        for (const auto &inst : bb->instructions())
            table.push_back(Entry{inst.get(), 0, false});
    std::sort(table.begin(), table.end(),
              [](const Entry &a, const Entry &b) { return a.inst < b.inst; });
    auto entryOf = [&](const ir::Value *v) -> Entry * {
        if (v->kind() != ir::Value::Kind::Instruction)
            return nullptr;
        auto it = std::lower_bound(
            table.begin(), table.end(), v,
            [](const Entry &e, const ir::Value *p) { return e.inst < p; });
        return it != table.end() && it->inst == v ? &*it : nullptr;
    };
    for (const Entry &e : table)
        for (const ir::Value *operand : e.inst->operands())
            if (Entry *def = entryOf(operand))
                ++def->uses;

    // An unused result without side effects is dead, and erasing it
    // takes one use from each operand: any that reaches zero follows.
    std::vector<Entry *> worklist;
    auto kill = [&](Entry &e) {
        if (e.dead || e.uses != 0 || e.inst->hasSideEffects() ||
            e.inst->type()->isVoid())
            return;
        e.dead = true;
        worklist.push_back(&e);
    };
    for (Entry &e : table)
        kill(e);
    unsigned removed = 0;
    while (!worklist.empty()) {
        const ir::Instruction *inst = worklist.back()->inst;
        worklist.pop_back();
        ++removed;
        for (const ir::Value *operand : inst->operands()) {
            if (Entry *def = entryOf(operand)) {
                --def->uses;
                kill(*def);
            }
        }
    }

    // Compact each block once.
    if (removed > 0)
        for (const auto &bb : fn.blocks())
            bb->eraseIf([&](const ir::Instruction *inst) {
                return entryOf(inst)->dead;
            });
    return removed;
}

} // namespace lpo::opt
