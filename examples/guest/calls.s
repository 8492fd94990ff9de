// Call/return chaining: a hot loop of `jal ra` calls, each returning
// through the return sentry that `jal` left in `cra`.
// Run:  cargo run -p cheriot-cli --bin cheriot-sim -- run examples/guest/calls.s --metrics
//
// Every `cret` is a capability jump through a sealed return sentry, so
// it ends its block and runs the full sentry validation; the block after
// it is reached through the ordinary successor links (the chained run
// reports a nonzero `block_chain_hits`). Every dispatch mode
// (--no-block-chain, --no-block-cache) must report the same exit and
// retire count.
// Expected: exit Halted(45150), 1504 instructions.

    li   a0, 0               // checksum
    li   a1, 0               // i
    li   s0, 300             // n
loop:
    addi a1, a1, 1
    jal  ra, accumulate      // cra = return sentry
    blt  a1, s0, loop
    halt                     // a0 = 300*301/2 = 45150

accumulate:
    add  a0, a0, a1
    cret                     // return through the sentry
