// A hot loop that the chained dispatcher promotes into one superblock.
// Run:  cargo run -p cheriot-cli --bin cheriot-sim -- run examples/guest/hot_loop.s --metrics
//
// The `skip` block's `blt` branches back to the loop head on every trip
// but the last, so after 16 trips that block is promoted together with
// the head: one superblock `add; blt; addi; andi; bnez` whose interior
// `blt` is a guard and whose final `bnez` loops back to itself. The last
// trip leaves through the guard (a side exit); the bonus iterations leave
// through the final `bnez` as before. Every dispatch mode
// (--no-block-chain, --no-block-cache) must report the same exit and
// retire count.

    li   a0, 0               // sum
    li   a1, 0               // i
    li   s0, 200             // n
loop:
    addi a1, a1, 1
    andi a2, a1, 63
    bnez a2, skip            // taken except every 64th iteration
    addi a0, a0, 100         // bonus
skip:
    add  a0, a0, a1
    blt  a1, s0, loop

    halt                     // a0 = 200*201/2 + 3*100 = 20400
