"""BGP substrate: messages, tables, sessions, sender models, collectors."""
