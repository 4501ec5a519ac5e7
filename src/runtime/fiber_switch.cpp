// The fiber switch on x86-64 (see fiber.h); other targets use swapcontext.
//
//   void rrfd_runtime_fiber_switch(void** save_sp, void* load_sp);
//
// Pushes rbp, rbx, r12-r15, MXCSR and the x87 control word (the state the
// System V ABI makes callee-saved) on the current stack, stores the stack
// pointer in *save_sp, then pops the same frame from load_sp and returns
// on that stack. That frame was pushed by this routine when its fiber
// last switched away, or built by FiberSet::prepare on a fresh stack.
// Caller-saved registers need no saving, since the caller already
// treats them as clobbered by the call, and the signal mask is not
// touched.
#if defined(__x86_64__)
asm(R"(
  .pushsection .text
  .globl rrfd_runtime_fiber_switch
  .hidden rrfd_runtime_fiber_switch
  .type rrfd_runtime_fiber_switch, @function
  .p2align 4
rrfd_runtime_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size rrfd_runtime_fiber_switch, .-rrfd_runtime_fiber_switch
  .popsection
)");
#endif
